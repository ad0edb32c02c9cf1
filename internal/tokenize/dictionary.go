package tokenize

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Dictionary maps observation strings to dense integer ids. Following §3.3
// of the paper, it is compiled from the training set and trimmed of
// observations that appear fewer than MinCount times; marker and class
// observations (NL, SEP, CLS:* …) are always retained because they are
// drawn from a small closed set.
type Dictionary struct {
	ids    map[string]int
	names  []string
	counts []int
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{ids: make(map[string]int)}
}

// BuildDictionary counts every observation in the given line sequences and
// retains those seen at least minCount times. minCount < 1 is treated as 1.
func BuildDictionary(records [][]Line, minCount int) *Dictionary {
	if minCount < 1 {
		minCount = 1
	}
	counts := make(map[string]int)
	for _, rec := range records {
		for _, ln := range rec {
			for _, o := range ln.Obs {
				counts[o]++
			}
		}
	}
	// Deterministic id assignment: sort observations.
	keys := make([]string, 0, len(counts))
	for k, c := range counts {
		if c >= minCount || isClosedClass(k) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	d := NewDictionary()
	for _, k := range keys {
		id := len(d.names)
		d.ids[k] = id
		d.names = append(d.names, k)
		d.counts = append(d.counts, counts[k])
	}
	return d
}

func isClosedClass(obs string) bool {
	switch obs {
	case MarkNL, MarkSHL, MarkSHR, MarkSYM, MarkSEP, MarkNoV, MarkBOL, MarkEOL:
		return true
	}
	return strings.HasPrefix(obs, "CLS:")
}

// Len reports the number of retained observations.
func (d *Dictionary) Len() int { return len(d.names) }

// ID returns the id of obs and whether it is in the dictionary.
func (d *Dictionary) ID(obs string) (int, bool) {
	id, ok := d.ids[obs]
	return id, ok
}

// Name returns the observation string for id. It panics on out-of-range
// ids, which always indicate a programming error.
func (d *Dictionary) Name(id int) string { return d.names[id] }

// Count returns the training-set frequency recorded for id.
func (d *Dictionary) Count(id int) int { return d.counts[id] }

// MapLine converts a line's observations to dictionary ids, dropping
// unknown observations (the CRF simply has no features for them).
func (d *Dictionary) MapLine(ln Line) []int {
	out := make([]int, 0, len(ln.Obs))
	for _, o := range ln.Obs {
		if id, ok := d.ids[o]; ok {
			out = append(out, id)
		}
	}
	return out
}

// AppendIDs appends the ids of the observations of s.Lines[i] to dst and
// returns it, dropping unknown observations: MapLine for a scanned line.
// The lookup reads the arena bytes in place, so no observation string is
// built.
func (d *Dictionary) AppendIDs(dst []int, s *Scan, i int) []int {
	for k := s.first[i]; k < s.first[i+1]; k++ {
		if id, ok := d.ids[string(s.obs(k))]; ok {
			dst = append(dst, id)
		}
	}
	return dst
}

// WriteTo serializes the dictionary as "count\tname" lines.
func (d *Dictionary) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	for i, name := range d.names {
		k, err := fmt.Fprintf(bw, "%d\t%s\n", d.counts[i], name)
		n += int64(k)
		if err != nil {
			return n, fmt.Errorf("tokenize: write dictionary: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return n, fmt.Errorf("tokenize: flush dictionary: %w", err)
	}
	return n, nil
}

// ReadDictionary parses the format produced by WriteTo.
func ReadDictionary(r io.Reader) (*Dictionary, error) {
	d := NewDictionary()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		tab := strings.IndexByte(line, '\t')
		if tab < 0 {
			return nil, fmt.Errorf("tokenize: dictionary line %d: missing tab", lineNo)
		}
		c, err := strconv.Atoi(line[:tab])
		if err != nil {
			return nil, fmt.Errorf("tokenize: dictionary line %d: bad count: %w", lineNo, err)
		}
		name := line[tab+1:]
		if _, dup := d.ids[name]; dup {
			return nil, fmt.Errorf("tokenize: dictionary line %d: duplicate entry %q", lineNo, name)
		}
		d.ids[name] = len(d.names)
		d.names = append(d.names, name)
		d.counts = append(d.counts, c)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("tokenize: read dictionary: %w", err)
	}
	return d, nil
}
