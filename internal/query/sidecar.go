package query

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/store"
)

// Sidecar formats. Both files share the envelope
//
//	magic[4] version[1] <body> crc32c[4]
//
// where the trailing CRC32C covers everything before it. Bodies are
// uvarint/length-prefixed, bounds-checked on decode: a sidecar is
// untrusted input (it can be stale, truncated, or hand-edited), and the
// worst a bad one may cause is a fall back to a full scan.
//
// Zone map (.zm) body:
//
//	segID uvarint, fingerprint LE32, records uvarint, flags byte,
//	minYear uvarint, maxYear uvarint,
//	registrars: count uvarint then len-prefixed strings (sorted),
//	countries:  count uvarint then len-prefixed strings (sorted)
//
// Index (.idx) body:
//
//	segID uvarint, fingerprint LE32, records uvarint, flags byte,
//	registrar section, country section (sorted string keys),
//	year section (ascending uvarint keys);
//	each key carries a posting list: count uvarint, then per posting
//	uvarint(Off - prevOff) and uvarint(Idx), sorted by (Off, Idx)
var (
	zoneMagic  = [4]byte{'W', 'Z', 'M', '1'}
	indexMagic = [4]byte{'W', 'I', 'X', '1'}
)

const (
	sidecarVersion = 1

	// maxZoneKeys caps the distinct registrar/country sets a zone map
	// tracks; past it the dimension is marked overflowed and cannot
	// prune (correct, just less effective).
	maxZoneKeys = 256
	// maxIndexKeys caps the keys per index section; past it the section
	// is dropped and queries on that dimension scan the segment.
	maxIndexKeys = 4096
	// maxSidecarBytes rejects absurd sidecar files before reading them
	// into memory.
	maxSidecarBytes = 64 << 20
)

// ErrBadSidecar covers every way a sidecar file can fail validation:
// wrong magic, version, checksum, or malformed body. Callers treat it
// exactly like a missing sidecar.
var ErrBadSidecar = errors.New("query: malformed sidecar")

// Zone-map flag bits.
const (
	zfRegOverflow     = 1 << 0
	zfCountryOverflow = 1 << 1
	zfYearZero        = 1 << 2 // some record has no parseable creation year
)

// Index flag bits.
const (
	xfRegOverflow     = 1 << 0
	xfCountryOverflow = 1 << 1
	xfYearOverflow    = 1 << 2
)

// ZoneMap summarizes one sealed segment for pruning: the distinct
// registrar and country sets (capped; overflow disables that dimension)
// and the creation-year range. A query whose predicate cannot match the
// summary skips the segment without touching it.
type ZoneMap struct {
	SegID       uint64
	Fingerprint uint32
	Records     uint64

	MinYear, MaxYear int  // over records with a parsed year; 0,0 = none
	YearZero         bool // at least one record has CreatedYear == 0

	Registrars      []string // sorted; complete unless RegOverflow
	Countries       []string // sorted; complete unless CountryOverflow
	RegOverflow     bool
	CountryOverflow bool
}

// MayMatch reports whether any record of the summarized segment could
// satisfy p. False positives cost a scan; false negatives would lose
// rows, so every rule here must be conservative.
func (z *ZoneMap) MayMatch(p Pred) bool {
	if z.Records == 0 {
		return false
	}
	if p.Registrar != "" && !z.RegOverflow && !containsSorted(z.Registrars, p.Registrar) {
		return false
	}
	if p.Country != "" && !z.CountryOverflow && !containsSorted(z.Countries, p.Country) {
		return false
	}
	if p.HasYear {
		switch {
		case p.YearTo > 0:
			// Range [Year, YearTo]: prune only when it cannot overlap the
			// segment's [MinYear, MaxYear] (ranges never match year-0
			// records, so YearZero does not keep the segment alive).
			if z.MaxYear == 0 || p.YearTo < z.MinYear || p.Year > z.MaxYear {
				return false
			}
		case p.Year == 0:
			if !z.YearZero {
				return false
			}
		default:
			if z.MaxYear == 0 || p.Year < z.MinYear || p.Year > z.MaxYear {
				return false
			}
		}
	}
	if p.Since > 0 && z.MaxYear < p.Since {
		return false
	}
	return true
}

func containsSorted(ss []string, s string) bool {
	i := sort.SearchStrings(ss, s)
	return i < len(ss) && ss[i] == s
}

// Posting locates one record: the byte offset of its frame within the
// segment and its index among the frame's records (always 0 for a plain
// frame, 0..n-1 inside a compressed block).
type Posting struct {
	Off int64
	Idx int
}

func postingLess(a, b Posting) bool {
	return a.Off < b.Off || (a.Off == b.Off && a.Idx < b.Idx)
}

// Index maps registrar, country, and creation-year values to the
// postings of the records carrying them. A nil section means that
// dimension overflowed maxIndexKeys at build time and cannot seek.
type Index struct {
	SegID       uint64
	Fingerprint uint32
	Records     uint64

	Registrar map[string][]Posting
	Country   map[string][]Posting
	Year      map[int][]Posting
}

// ZonePath and IndexPath name the sidecars for segment id inside the
// store directory, mirroring the %08d.seg naming of the segments.
func ZonePath(dir string, segID uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%08d.zm", segID))
}

// IndexPath returns the secondary-index sidecar path for segment id.
func IndexPath(dir string, segID uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%08d.idx", segID))
}

// sidecarWriter builds a sidecar body.
type sidecarWriter struct{ b []byte }

func (w *sidecarWriter) uvarint(v uint64) { w.b = binary.AppendUvarint(w.b, v) }
func (w *sidecarWriter) u32(v uint32)     { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *sidecarWriter) byte(v byte)      { w.b = append(w.b, v) }
func (w *sidecarWriter) str(s string)     { w.b = store.AppendString(w.b, s) }

// finish appends the trailing CRC and returns the complete file bytes.
func (w *sidecarWriter) finish() []byte {
	return binary.LittleEndian.AppendUint32(w.b, crc32.Checksum(w.b, store.Castagnoli))
}

// checkEnvelope validates magic, version, and trailing CRC, returning
// the body bytes.
func checkEnvelope(data []byte, magic [4]byte) ([]byte, error) {
	if len(data) < len(magic)+1+4 {
		return nil, fmt.Errorf("%w: short file", ErrBadSidecar)
	}
	if [4]byte(data[:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadSidecar)
	}
	if data[4] != sidecarVersion {
		return nil, fmt.Errorf("%w: version %d", ErrBadSidecar, data[4])
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, store.Castagnoli) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadSidecar)
	}
	return body[5:], nil
}

// encodeZoneMap serializes z (sets are sorted in place).
func encodeZoneMap(z *ZoneMap) []byte {
	w := &sidecarWriter{}
	w.b = append(w.b, zoneMagic[:]...)
	w.byte(sidecarVersion)
	w.uvarint(z.SegID)
	w.u32(z.Fingerprint)
	w.uvarint(z.Records)
	var flags byte
	if z.RegOverflow {
		flags |= zfRegOverflow
	}
	if z.CountryOverflow {
		flags |= zfCountryOverflow
	}
	if z.YearZero {
		flags |= zfYearZero
	}
	w.byte(flags)
	w.uvarint(uint64(z.MinYear))
	w.uvarint(uint64(z.MaxYear))
	sort.Strings(z.Registrars)
	sort.Strings(z.Countries)
	for _, set := range [][]string{z.Registrars, z.Countries} {
		w.uvarint(uint64(len(set)))
		for _, s := range set {
			w.str(s)
		}
	}
	return w.finish()
}

func decodeZoneMap(data []byte) (*ZoneMap, error) {
	body, err := checkEnvelope(data, zoneMagic)
	if err != nil {
		return nil, err
	}
	r := store.NewCursor(body)
	z := &ZoneMap{}
	z.SegID = r.Uvarint()
	z.Fingerprint = r.U32()
	z.Records = r.Uvarint()
	flags := r.Byte()
	z.RegOverflow = flags&zfRegOverflow != 0
	z.CountryOverflow = flags&zfCountryOverflow != 0
	z.YearZero = flags&zfYearZero != 0
	minY, maxY := r.Uvarint(), r.Uvarint()
	if r.Bad() || minY > 9999 || maxY > 9999 || minY > maxY {
		return nil, fmt.Errorf("%w: year range", ErrBadSidecar)
	}
	z.MinYear, z.MaxYear = int(minY), int(maxY)
	for _, dst := range []*[]string{&z.Registrars, &z.Countries} {
		n := r.Uvarint()
		if r.Bad() || n > maxZoneKeys || n > uint64(r.Remaining()) {
			return nil, fmt.Errorf("%w: key set", ErrBadSidecar)
		}
		set := make([]string, 0, n)
		prev := ""
		for i := uint64(0); i < n; i++ {
			s := r.Str()
			if r.Bad() || (i > 0 && s <= prev) {
				return nil, fmt.Errorf("%w: key set order", ErrBadSidecar)
			}
			set = append(set, s)
			prev = s
		}
		*dst = set
	}
	if !r.Done() {
		return nil, fmt.Errorf("%w: trailing bytes", ErrBadSidecar)
	}
	return z, nil
}

func writePostings(w *sidecarWriter, ps []Posting) {
	w.uvarint(uint64(len(ps)))
	var prev int64
	for _, p := range ps {
		w.uvarint(uint64(p.Off - prev))
		w.uvarint(uint64(p.Idx))
		prev = p.Off
	}
}

func readPostings(r *store.Cursor) ([]Posting, error) {
	n := r.Uvarint()
	// Each posting costs at least two bytes on the wire.
	if r.Bad() || n > uint64(r.Remaining()/2)+1 {
		return nil, fmt.Errorf("%w: posting count", ErrBadSidecar)
	}
	ps := make([]Posting, 0, n)
	var prev Posting
	for i := uint64(0); i < n; i++ {
		d, idx := r.Uvarint(), r.Uvarint()
		if r.Bad() || d > 1<<40 || idx > 1<<24 {
			return nil, fmt.Errorf("%w: posting", ErrBadSidecar)
		}
		p := Posting{Off: prev.Off + int64(d), Idx: int(idx)}
		if i > 0 && !postingLess(prev, p) {
			return nil, fmt.Errorf("%w: posting order", ErrBadSidecar)
		}
		ps = append(ps, p)
		prev = p
	}
	return ps, nil
}

// encodeIndex serializes x with deterministic key order.
func encodeIndex(x *Index) []byte {
	w := &sidecarWriter{}
	w.b = append(w.b, indexMagic[:]...)
	w.byte(sidecarVersion)
	w.uvarint(x.SegID)
	w.u32(x.Fingerprint)
	w.uvarint(x.Records)
	var flags byte
	if x.Registrar == nil {
		flags |= xfRegOverflow
	}
	if x.Country == nil {
		flags |= xfCountryOverflow
	}
	if x.Year == nil {
		flags |= xfYearOverflow
	}
	w.byte(flags)
	for _, m := range []map[string][]Posting{x.Registrar, x.Country} {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		w.uvarint(uint64(len(keys)))
		for _, k := range keys {
			w.str(k)
			writePostings(w, m[k])
		}
	}
	years := make([]int, 0, len(x.Year))
	for y := range x.Year {
		years = append(years, y)
	}
	sort.Ints(years)
	w.uvarint(uint64(len(years)))
	for _, y := range years {
		w.uvarint(uint64(y))
		writePostings(w, x.Year[y])
	}
	return w.finish()
}

func decodeIndex(data []byte) (*Index, error) {
	body, err := checkEnvelope(data, indexMagic)
	if err != nil {
		return nil, err
	}
	r := store.NewCursor(body)
	x := &Index{}
	x.SegID = r.Uvarint()
	x.Fingerprint = r.U32()
	x.Records = r.Uvarint()
	flags := r.Byte()
	if r.Bad() {
		return nil, fmt.Errorf("%w: header", ErrBadSidecar)
	}
	for i, overflowed := range []bool{flags&xfRegOverflow != 0, flags&xfCountryOverflow != 0} {
		n := r.Uvarint()
		if r.Bad() || n > maxIndexKeys || n > uint64(r.Remaining()) {
			return nil, fmt.Errorf("%w: section size", ErrBadSidecar)
		}
		if overflowed && n != 0 {
			return nil, fmt.Errorf("%w: overflowed section with keys", ErrBadSidecar)
		}
		var m map[string][]Posting
		if !overflowed {
			m = make(map[string][]Posting, n)
		}
		prev := ""
		for j := uint64(0); j < n; j++ {
			k := r.Str()
			if r.Bad() || (j > 0 && k <= prev) {
				return nil, fmt.Errorf("%w: key order", ErrBadSidecar)
			}
			ps, err := readPostings(r)
			if err != nil {
				return nil, err
			}
			m[k] = ps
			prev = k
		}
		if i == 0 {
			x.Registrar = m
		} else {
			x.Country = m
		}
	}
	n := r.Uvarint()
	if r.Bad() || n > maxIndexKeys || n > uint64(r.Remaining()) {
		return nil, fmt.Errorf("%w: year section size", ErrBadSidecar)
	}
	if flags&xfYearOverflow != 0 {
		if n != 0 {
			return nil, fmt.Errorf("%w: overflowed section with keys", ErrBadSidecar)
		}
	} else {
		x.Year = make(map[int][]Posting, n)
	}
	prevYear := int64(-1)
	for j := uint64(0); j < n; j++ {
		y := r.Uvarint()
		if r.Bad() || y > 9999 || int64(y) <= prevYear {
			return nil, fmt.Errorf("%w: year key", ErrBadSidecar)
		}
		ps, err := readPostings(r)
		if err != nil {
			return nil, err
		}
		x.Year[int(y)] = ps
		prevYear = int64(y)
	}
	if !r.Done() {
		return nil, fmt.Errorf("%w: trailing bytes", ErrBadSidecar)
	}
	return x, nil
}

// loadSidecar reads and size-caps one sidecar file. A missing file is
// reported as os.ErrNotExist (callers distinguish "never built" from
// "built but bad").
func loadSidecar(path string) ([]byte, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if fi.Size() > maxSidecarBytes {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadSidecar, fi.Size())
	}
	return os.ReadFile(path)
}

// LoadZoneMap reads and validates the zone map at path.
func LoadZoneMap(path string) (*ZoneMap, error) {
	data, err := loadSidecar(path)
	if err != nil {
		return nil, err
	}
	return decodeZoneMap(data)
}

// LoadIndex reads and validates the index at path.
func LoadIndex(path string) (*Index, error) {
	data, err := loadSidecar(path)
	if err != nil {
		return nil, err
	}
	return decodeIndex(data)
}

// writeFileAtomic writes data via temp file + rename so a crash never
// leaves a torn sidecar where a good (or no) one stood.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("query: write sidecar: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("query: write sidecar: %w", err)
	}
	return nil
}
