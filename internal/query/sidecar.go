package query

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/store"
	"repro/internal/survey"
)

// The facts sidecar. Each sealed segment %08d.seg gets one %08d.facts
// beside it, in the envelope
//
//	magic "WFC1", version[1], <body>, crc32c[4]
//
// where the trailing CRC32C covers everything before it. The body is
//
//	segID uvarint, fingerprint LE32, records uvarint,
//	dictionary: count uvarint, then len-prefixed strings, strictly ascending,
//	frames: count uvarint, then per frame uvarint(off - prevOff) and
//	        uvarint(records in the frame),
//	rows: per record, in segment order, the dictionary codes (uvarint) of
//	      its registrar, country, org and privacy service, then
//	      uvarint(creation year) and a flags byte (privacy, blacklisted).
//
// Rows follow segment order, so the frame table gives every row its frame
// offset and its index inside that frame. The body is bounds-checked on
// decode: a sidecar is untrusted input (it can be stale, truncated, or
// hand-edited), and the worst a bad one may cause is a full scan.
var sidecarMagic = [4]byte{'W', 'F', 'C', '1'}

const (
	sidecarVersion = 1
	sidecarSuffix  = ".facts"
	// maxSidecarBytes rejects absurd sidecar files before reading them
	// into memory.
	maxSidecarBytes = 64 << 20
)

// ErrBadSidecar covers every way a sidecar file can fail validation:
// wrong magic, version, checksum, or malformed body. Callers treat it
// exactly like a missing sidecar.
var ErrBadSidecar = errors.New("query: malformed sidecar")

// The dictionary-coded columns of a row, in wire order.
const (
	colRegistrar = iota
	colCountry
	colOrg
	colPrivacySvc
	numCols
)

// Row flag bits.
const (
	rowPrivacy = 1 << iota
	rowBlacklisted
)

// sidecar is one segment's facts column: every survey.Facts field that
// Pred.Match or survey.Add reads, for every record, with the string
// fields coded against one per-segment dictionary, and the frame table
// that locates each record in the segment. A sealed segment's is also
// kept as a file; the active segment's only in memory.
type sidecar struct {
	segID       uint64
	fingerprint uint32
	dict        []string // strictly ascending
	frames      []frameSpan
	rows        []factsRow

	// Derived from rows on build and decode, for pruning.
	minYear, maxYear int  // over rows with a year; 0, 0 = none
	yearZero         bool // some row has no creation year
}

// frameSpan is one frame of the segment: its byte offset and the number
// of records (rows) it holds.
type frameSpan struct {
	off int64
	n   int
}

type factsRow struct {
	codes [numCols]uint32 // indexes into dict
	year  uint16
	flags uint8
}

// sidecarPath names the facts sidecar of segment id inside the store
// directory, mirroring the %08d.seg naming of the segments.
func sidecarPath(dir string, id uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%08d%s", id, sidecarSuffix))
}

// describes reports whether the sidecar was built from this very
// snapshot: same segment, same content fingerprint, same record count.
func (sc *sidecar) describes(info store.SegmentInfo, fp uint32) bool {
	return sc.segID == info.ID && sc.fingerprint == fp && uint64(len(sc.rows)) == info.Records
}

// facts returns row i as the facts survey.Add folds. Domain and
// ModelVersion stay empty: no predicate or table reads them.
func (sc *sidecar) facts(i int) survey.Facts {
	r := &sc.rows[i]
	return survey.Facts{
		Registrar:   sc.dict[r.codes[colRegistrar]],
		Country:     sc.dict[r.codes[colCountry]],
		Org:         sc.dict[r.codes[colOrg]],
		PrivacySvc:  sc.dict[r.codes[colPrivacySvc]],
		CreatedYear: int(r.year),
		Privacy:     r.flags&rowPrivacy != 0,
		Blacklisted: r.flags&rowBlacklisted != 0,
	}
}

// match returns the rows whose facts satisfy p, in segment order.
func (sc *sidecar) match(p Pred) []int {
	var rows []int
	for i := range sc.rows {
		if f := sc.facts(i); p.Match(&f) {
			rows = append(rows, i)
		}
	}
	return rows
}

// prunes reports that no record of the segment can satisfy p, without
// looking at a row: the dictionary lacks the wanted registrar or country,
// or the wanted years fall outside the segment's. Every rule must be
// conservative; a false "prunes" would lose rows.
func (sc *sidecar) prunes(p Pred) bool {
	if p.Registrar != "" && !sc.inDict(p.Registrar) || p.Country != "" && !sc.inDict(p.Country) {
		return true
	}
	// The years Match admits, as a window [lo, hi]; lo == 0 admits the
	// records without a year.
	lo, hi := p.Since, 9999
	if p.HasYear {
		lo, hi = max(lo, p.Year), p.Year
		if p.YearTo > 0 {
			hi = p.YearTo
		}
	}
	switch {
	case lo > hi:
		return true
	case lo == 0:
		return !sc.yearZero && (sc.maxYear == 0 || hi < sc.minYear)
	default:
		return sc.maxYear == 0 || hi < sc.minYear || lo > sc.maxYear
	}
}

func (sc *sidecar) inDict(s string) bool {
	_, ok := slices.BinarySearch(sc.dict, s)
	return ok
}

// deriveYears fills the year summary prunes reads.
func (sc *sidecar) deriveYears() {
	for i := range sc.rows {
		y := int(sc.rows[i].year)
		switch {
		case y == 0:
			sc.yearZero = true
		case sc.maxYear == 0:
			sc.minYear, sc.maxYear = y, y
		default:
			sc.minYear, sc.maxYear = min(sc.minYear, y), max(sc.maxYear, y)
		}
	}
}

// read decodes the given rows (ascending) from the frames that hold them,
// one FrameAt per such frame, and re-checks each record against p. A
// frame that is not where the sidecar says, holds a different number of
// records, or carries a record p rejects means the sidecar lied: read
// errors, and the caller discards everything and scans the segment, so
// a partial result never leaks out as a complete one.
func (sc *sidecar) read(r *store.SegmentReader, rows []int, p Pred) ([]*store.Record, error) {
	var out []*store.Record
	fi, first, loaded := 0, 0, -1 // frame holding the row, its first row, the frame in payloads
	var payloads [][]byte
	for _, row := range rows {
		for row >= first+sc.frames[fi].n {
			first += sc.frames[fi].n
			fi++
		}
		if loaded != fi {
			var err error
			if payloads, err = r.FrameAt(sc.frames[fi].off); err != nil {
				return nil, err
			}
			if len(payloads) != sc.frames[fi].n {
				return nil, fmt.Errorf("query: frame at %d holds %d records, sidecar says %d", sc.frames[fi].off, len(payloads), sc.frames[fi].n)
			}
			loaded = fi
		}
		rec, err := store.DecodeRecord(payloads[row-first])
		if err != nil {
			return nil, err
		}
		if !p.Match(&rec.Facts) {
			return nil, fmt.Errorf("query: record %d of segment %d disagrees with its sidecar row", row, sc.segID)
		}
		out = append(out, rec)
	}
	return out, nil
}

// buildSidecar derives the facts sidecar of one segment snapshot in a
// single pass over its frames, handing each decoded record to keep when
// keep is non-nil. It inherits the snapshot's fingerprint, so it
// self-invalidates when the segment is later compacted, compressed or
// otherwise rewritten.
func buildSidecar(r *store.SegmentReader, keep func(*store.Record)) (*sidecar, error) {
	info := r.Info()
	fp, err := r.Fingerprint()
	if err != nil {
		return nil, err
	}
	sc := &sidecar{segID: info.ID, fingerprint: fp}
	codes := make(map[string]uint32) // provisional codes, in first-seen order
	code := func(s string) uint32 {
		c, ok := codes[s]
		if !ok {
			c = uint32(len(sc.dict))
			codes[s] = c
			sc.dict = append(sc.dict, s)
		}
		return c
	}
	err = r.Frames(func(off int64, payloads [][]byte) error {
		sc.frames = append(sc.frames, frameSpan{off: off, n: len(payloads)})
		for _, payload := range payloads {
			rec, err := store.DecodeRecord(payload)
			if err != nil {
				return err
			}
			f := &rec.Facts
			row := factsRow{year: uint16(f.CreatedYear)}
			row.codes = [numCols]uint32{code(f.Registrar), code(f.Country), code(f.Org), code(f.PrivacySvc)}
			if f.Privacy {
				row.flags |= rowPrivacy
			}
			if f.Blacklisted {
				row.flags |= rowBlacklisted
			}
			sc.rows = append(sc.rows, row)
			if keep != nil {
				keep(rec)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if uint64(len(sc.rows)) != info.Records {
		return nil, fmt.Errorf("query: build %s: saw %d of %d records", info.Path, len(sc.rows), info.Records)
	}
	// Sort the dictionary, so lookups binary-search it and the bytes of
	// a segment's sidecar do not depend on map order, and recode rows.
	slices.Sort(sc.dict)
	final := make([]uint32, len(sc.dict))
	for i, s := range sc.dict {
		final[codes[s]] = uint32(i)
	}
	for i := range sc.rows {
		for c, v := range sc.rows[i].codes {
			sc.rows[i].codes[c] = final[v]
		}
	}
	sc.deriveYears()
	return sc, nil
}

// encode serializes the sidecar into its file bytes.
func (sc *sidecar) encode() []byte {
	b := append([]byte(nil), sidecarMagic[:]...)
	b = append(b, sidecarVersion)
	b = binary.AppendUvarint(b, sc.segID)
	b = binary.LittleEndian.AppendUint32(b, sc.fingerprint)
	b = binary.AppendUvarint(b, uint64(len(sc.rows)))
	b = binary.AppendUvarint(b, uint64(len(sc.dict)))
	for _, s := range sc.dict {
		b = store.AppendString(b, s)
	}
	b = binary.AppendUvarint(b, uint64(len(sc.frames)))
	var prev int64
	for _, f := range sc.frames {
		b = binary.AppendUvarint(b, uint64(f.off-prev))
		b = binary.AppendUvarint(b, uint64(f.n))
		prev = f.off
	}
	for _, r := range sc.rows {
		for _, c := range r.codes {
			b = binary.AppendUvarint(b, uint64(c))
		}
		b = binary.AppendUvarint(b, uint64(r.year))
		b = append(b, r.flags)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, store.Castagnoli))
}

// decodeSidecar validates and decodes sidecar file bytes. Every count is
// checked against the bytes left before anything is allocated for it: a
// dictionary string costs at least one byte, a frame two and a row six.
func decodeSidecar(data []byte) (*sidecar, error) {
	if len(data) < len(sidecarMagic)+1+4 {
		return nil, fmt.Errorf("%w: short file", ErrBadSidecar)
	}
	if [4]byte(data[:4]) != sidecarMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadSidecar)
	}
	if data[4] != sidecarVersion {
		return nil, fmt.Errorf("%w: version %d", ErrBadSidecar, data[4])
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, store.Castagnoli) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadSidecar)
	}
	r := store.NewCursor(body[5:])
	sc := &sidecar{segID: r.Uvarint(), fingerprint: r.U32()}
	records := r.Uvarint()

	n := r.Uvarint()
	if r.Bad() || n > uint64(r.Remaining()) {
		return nil, fmt.Errorf("%w: dictionary size", ErrBadSidecar)
	}
	sc.dict = make([]string, n)
	for i := range sc.dict {
		sc.dict[i] = r.Str()
		if r.Bad() || i > 0 && sc.dict[i] <= sc.dict[i-1] {
			return nil, fmt.Errorf("%w: dictionary order", ErrBadSidecar)
		}
	}

	n = r.Uvarint()
	if r.Bad() || n > uint64(r.Remaining()/2) {
		return nil, fmt.Errorf("%w: frame count", ErrBadSidecar)
	}
	sc.frames = make([]frameSpan, n)
	var off, total uint64
	for i := range sc.frames {
		d, k := r.Uvarint(), r.Uvarint()
		if r.Bad() || d == 0 || d > 1<<40 || k == 0 || k > records-total {
			return nil, fmt.Errorf("%w: frame %d", ErrBadSidecar, i)
		}
		off, total = off+d, total+k
		sc.frames[i] = frameSpan{off: int64(off), n: int(k)}
	}
	if total != records {
		return nil, fmt.Errorf("%w: frames hold %d of %d records", ErrBadSidecar, total, records)
	}

	if records > uint64(r.Remaining()/6) {
		return nil, fmt.Errorf("%w: row count", ErrBadSidecar)
	}
	sc.rows = make([]factsRow, records)
	for i := range sc.rows {
		row := &sc.rows[i]
		for c := range row.codes {
			v := r.Uvarint()
			if v >= uint64(len(sc.dict)) {
				return nil, fmt.Errorf("%w: row %d code", ErrBadSidecar, i)
			}
			row.codes[c] = uint32(v)
		}
		year, flags := r.Uvarint(), r.Byte()
		if r.Bad() || year > 9999 || flags&^(rowPrivacy|rowBlacklisted) != 0 {
			return nil, fmt.Errorf("%w: row %d", ErrBadSidecar, i)
		}
		row.year, row.flags = uint16(year), flags
	}
	if !r.Done() {
		return nil, fmt.Errorf("%w: trailing bytes", ErrBadSidecar)
	}
	sc.deriveYears()
	return sc, nil
}

// loadSidecar reads, size-caps and decodes one sidecar file. A missing
// file reports an error matching fs.ErrNotExist: callers tell "never
// built" from "built but bad".
func loadSidecar(path string) (*sidecar, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if fi.Size() > maxSidecarBytes {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadSidecar, fi.Size())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeSidecar(data)
}
