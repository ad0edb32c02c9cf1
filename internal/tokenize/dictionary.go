package tokenize

import (
	"fmt"
	"sort"
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

// DictionaryFrom rebuilds a dictionary from its entries in id order —
// what a serialized model stores. Model files are outside input, so a
// names/counts length mismatch or a duplicate name is an error. The
// dictionary keeps both slices; the caller must not modify them.
func DictionaryFrom(names []string, counts []int) (*Dictionary, error) {
	if len(names) != len(counts) {
		return nil, fmt.Errorf("tokenize: dictionary has %d names but %d counts", len(names), len(counts))
	}
	d := &Dictionary{ids: make(map[string]int, len(names)), names: names, counts: counts}
	for id, name := range names {
		if _, dup := d.ids[name]; dup {
			return nil, fmt.Errorf("tokenize: dictionary entry %d: duplicate name %q", id, name)
		}
		d.ids[name] = id
	}
	return d, nil
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
