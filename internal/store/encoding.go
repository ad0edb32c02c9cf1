// Package store is the persistence layer under the crawl → parse →
// survey pipeline: an append-only, segmented record log holding parsed
// WHOIS records and their derived survey facts, plus a versioned artifact
// format for trained CRF models. The paper's §6 survey covers 102M .com
// registrations; at that scale neither the parsed corpus nor the trained
// parser can live only in process memory, and "WHOIS Right?" shows these
// corpora get re-collected and re-compared over time — so both must
// survive restarts, crashes, and partial crawls.
//
// On-disk layout (see DESIGN.md §5d for the full diagram):
//
//	dir/
//	  00000001.seg        sealed segment
//	  00000002.seg        sealed segment
//	  00000003.seg        active segment (append target)
//
// Every segment starts with an 8-byte header (magic "WSG1", one format
// version byte, three reserved zero bytes) followed by frames:
//
//	frame := uvarint(len(payload)) | payload | crc32c(payload) LE32
//
// The CRC is Castagnoli (CRC32C). The cluster wire uses the same
// envelope, written by AppendFrame and read by ReadFrame, and decodes
// its messages with the same Cursor. A frame whose length varint is torn,
// whose payload is short, or whose CRC mismatches marks the end of the
// recoverable region: Open truncates a torn tail on the newest segment
// (a crash mid-append) and refuses corruption anywhere else.
package store

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"repro/internal/core"
	"repro/internal/labels"
	"repro/internal/survey"
	"repro/internal/tokenize"
)

// Segment header.
var segMagic = [4]byte{'W', 'S', 'G', '1'}

const (
	segVersion   = 1
	segHeaderLen = 8

	// maxFramePayload bounds a single record frame. The decoder refuses
	// larger length prefixes before allocating, so a corrupt varint can
	// never cause a multi-gigabyte allocation.
	maxFramePayload = 16 << 20
)

// Castagnoli is the one CRC32C table in the program: segment frames,
// model artifacts, the cluster wire, query sidecars and registry
// manifests all checksum with it.
var Castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Decode errors. ErrTornFrame specifically means "the bytes end mid-frame"
// — recoverable when it is the tail of the newest segment, fatal anywhere
// else.
var (
	ErrTornFrame   = errors.New("store: torn frame")
	ErrBadChecksum = errors.New("store: frame checksum mismatch")
	ErrFrameTooBig = errors.New("store: frame exceeds size limit")
	ErrBadRecord   = errors.New("store: malformed record payload")
)

// Record is one persisted entry: a domain's parsed WHOIS record plus the
// survey facts derived from it. Text optionally carries the raw record
// (the serve warm-start path needs the exact query text to compute cache
// keys); Parsed is optional for thin-only crawls. Facts.Domain always
// mirrors Domain after decoding.
type Record struct {
	Domain string
	Text   string
	Parsed *core.ParsedRecord
	Facts  survey.Facts
}

// Payload flag bits. flagHasModelVersion and flagHasDomainMeta gate
// fields appended at the very end of the payload (in that order), so
// records written before either existed decode unchanged.
const (
	flagPrivacy         = 1 << 0
	flagBlacklisted     = 1 << 1
	flagHasParsed       = 1 << 2
	flagHasText         = 1 << 3
	flagHasModelVersion = 1 << 4
	// flagHasDomainMeta gates the parsed record's NameServers and
	// Statuses lists — the domain-block multi-values the consistency
	// engine compares against RDAP. Only ever set alongside
	// flagHasParsed.
	flagHasDomainMeta = 1 << 5
)

// recordKind tags the payload type, leaving room for future frame kinds
// (checkpoints, tombstones) without a format-version bump. blockKind is
// a compressed block: many record payloads flate-compressed into one
// frame, used on sealed segments only (the active segment stays plain
// so crash recovery keeps byte-granular truncation).
const (
	recordKind = 1
	blockKind  = 2
)

// AppendString appends s with its uvarint length prefix: the string and
// byte-string encoding of record payloads, wire messages and sidecars.
// Cursor.Str and Cursor.Bytes read it back.
func AppendString[S string | []byte](buf []byte, s S) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// appendRecord encodes rec into buf (reusing its capacity) and returns
// the payload. The layout is positional — see decodeRecord, its exact
// mirror.
func appendRecord(buf []byte, rec *Record) []byte {
	buf = append(buf, recordKind)
	var flags byte
	if rec.Facts.Privacy {
		flags |= flagPrivacy
	}
	if rec.Facts.Blacklisted {
		flags |= flagBlacklisted
	}
	if rec.Parsed != nil {
		flags |= flagHasParsed
	}
	if rec.Text != "" {
		flags |= flagHasText
	}
	modelVersion := rec.Facts.ModelVersion
	if modelVersion == "" && rec.Parsed != nil {
		modelVersion = rec.Parsed.ModelVersion
	}
	if modelVersion != "" {
		flags |= flagHasModelVersion
	}
	if rec.Parsed != nil && (len(rec.Parsed.NameServers) > 0 || len(rec.Parsed.Statuses) > 0) {
		flags |= flagHasDomainMeta
	}
	buf = append(buf, flags)
	buf = AppendString(buf, rec.Domain)
	buf = AppendString(buf, rec.Facts.Registrar)
	buf = AppendString(buf, rec.Facts.Country)
	buf = binary.AppendUvarint(buf, uint64(rec.Facts.CreatedYear))
	buf = AppendString(buf, rec.Facts.PrivacySvc)
	buf = AppendString(buf, rec.Facts.Org)
	if rec.Text != "" {
		buf = AppendString(buf, rec.Text)
	}
	if pr := rec.Parsed; pr != nil {
		buf = AppendString(buf, pr.Registrar)
		buf = AppendString(buf, pr.RegistrarURL)
		buf = AppendString(buf, pr.DomainName)
		buf = AppendString(buf, pr.WhoisServer)
		buf = AppendString(buf, pr.CreatedDate)
		buf = AppendString(buf, pr.UpdatedDate)
		buf = AppendString(buf, pr.ExpiresDate)
		buf = appendContact(buf, &pr.Registrant)
		buf = binary.AppendUvarint(buf, uint64(len(pr.Lines)))
		for i := range pr.Lines {
			buf = AppendString(buf, pr.Lines[i].Raw)
			buf = append(buf, byte(pr.Blocks[i]), byte(pr.Fields[i]))
		}
	}
	if modelVersion != "" {
		buf = AppendString(buf, modelVersion)
	}
	if flags&flagHasDomainMeta != 0 {
		buf = appendStrings(buf, rec.Parsed.NameServers)
		buf = appendStrings(buf, rec.Parsed.Statuses)
	}
	return buf
}

func appendStrings(buf []byte, ss []string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ss)))
	for _, s := range ss {
		buf = AppendString(buf, s)
	}
	return buf
}

func appendContact(buf []byte, c *core.Contact) []byte {
	buf = AppendString(buf, c.Name)
	buf = AppendString(buf, c.ID)
	buf = AppendString(buf, c.Org)
	buf = AppendString(buf, c.Street)
	buf = AppendString(buf, c.City)
	buf = AppendString(buf, c.State)
	buf = AppendString(buf, c.Postcode)
	buf = AppendString(buf, c.Country)
	buf = AppendString(buf, c.Phone)
	buf = AppendString(buf, c.Fax)
	buf = AppendString(buf, c.Email)
	return buf
}

// Cursor is a bounds-checked reader over one payload: a record, a wire
// message or a sidecar body. A read that would run past the end latches
// the cursor bad and returns a zero value, and every later read does the
// same, so a decoder reads all its fields and checks Bad (or Done) once.
// No method panics or reads outside the slice; the fuzz targets of the
// store, the cluster and the query engine lean on this.
type Cursor struct {
	b   []byte
	pos int
	bad bool
}

// NewCursor returns a cursor at the start of b.
func NewCursor(b []byte) *Cursor { return &Cursor{b: b} }

// Bad reports whether a read has failed.
func (r *Cursor) Bad() bool { return r.bad }

// Remaining returns the number of unread bytes.
func (r *Cursor) Remaining() int { return len(r.b) - r.pos }

// Done reports whether every read succeeded and consumed the payload
// exactly, with no trailing bytes.
func (r *Cursor) Done() bool { return !r.bad && r.pos == len(r.b) }

// Byte reads one byte.
func (r *Cursor) Byte() byte {
	if r.bad || r.pos >= len(r.b) {
		r.bad = true
		return 0
	}
	c := r.b[r.pos]
	r.pos++
	return c
}

// Uvarint reads one unsigned varint.
func (r *Cursor) Uvarint() uint64 {
	if r.bad {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.pos += n
	return v
}

// U32 reads one little-endian uint32.
func (r *Cursor) U32() uint32 {
	if r.bad || r.Remaining() < 4 {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.pos:])
	r.pos += 4
	return v
}

// Bytes reads one length-prefixed byte string. The result aliases the
// payload, so it is valid only as long as the payload is.
func (r *Cursor) Bytes() []byte {
	n := r.Uvarint()
	if r.bad || n > uint64(r.Remaining()) {
		r.bad = true
		return nil
	}
	b := r.b[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return b
}

// Str reads one length-prefixed string into a copy of its own.
func (r *Cursor) Str() string { return string(r.Bytes()) }

// decodeRecord parses one payload produced by appendRecord. It never
// panics or over-reads: every length is validated against the remaining
// bytes before use.
func decodeRecord(payload []byte) (*Record, error) {
	r := NewCursor(payload)
	if kind := r.Byte(); r.Bad() || kind != recordKind {
		return nil, fmt.Errorf("%w: unknown kind", ErrBadRecord)
	}
	flags := r.Byte()
	rec := &Record{}
	rec.Domain = r.Str()
	rec.Facts.Registrar = r.Str()
	rec.Facts.Country = r.Str()
	year := r.Uvarint()
	rec.Facts.PrivacySvc = r.Str()
	rec.Facts.Org = r.Str()
	if r.Bad() {
		return nil, fmt.Errorf("%w: truncated facts", ErrBadRecord)
	}
	if year > 9999 {
		return nil, fmt.Errorf("%w: implausible year %d", ErrBadRecord, year)
	}
	rec.Facts.Domain = rec.Domain
	rec.Facts.CreatedYear = int(year)
	rec.Facts.Privacy = flags&flagPrivacy != 0
	rec.Facts.Blacklisted = flags&flagBlacklisted != 0
	if flags&flagHasText != 0 {
		rec.Text = r.Str()
	}
	if flags&flagHasParsed != 0 {
		pr := &core.ParsedRecord{}
		pr.Registrar = r.Str()
		pr.RegistrarURL = r.Str()
		pr.DomainName = r.Str()
		pr.WhoisServer = r.Str()
		pr.CreatedDate = r.Str()
		pr.UpdatedDate = r.Str()
		pr.ExpiresDate = r.Str()
		decodeContact(r, &pr.Registrant)
		nLines := r.Uvarint()
		if r.Bad() {
			return nil, fmt.Errorf("%w: truncated parsed record", ErrBadRecord)
		}
		// Each line costs at least 3 bytes (empty-string varint + two
		// label bytes), so a count beyond remaining/3 is corrupt — reject
		// before allocating.
		if nLines > uint64(r.Remaining())/3 {
			return nil, fmt.Errorf("%w: line count %d exceeds payload", ErrBadRecord, nLines)
		}
		pr.Lines = make([]tokenize.Line, nLines)
		pr.Blocks = make([]labels.Block, nLines)
		pr.Fields = make([]labels.Field, nLines)
		for i := range pr.Lines {
			pr.Lines[i].Raw = r.Str()
			b, fd := r.Byte(), r.Byte()
			if r.Bad() {
				return nil, fmt.Errorf("%w: truncated line %d", ErrBadRecord, i)
			}
			if int(b) >= labels.NumBlocks || int(fd) >= labels.NumFields {
				return nil, fmt.Errorf("%w: label out of range at line %d", ErrBadRecord, i)
			}
			pr.Blocks[i] = labels.Block(b)
			pr.Fields[i] = labels.Field(fd)
		}
		rec.Parsed = pr
	}
	if flags&flagHasModelVersion != 0 {
		rec.Facts.ModelVersion = r.Str()
		if rec.Parsed != nil {
			rec.Parsed.ModelVersion = rec.Facts.ModelVersion
		}
	}
	if flags&flagHasDomainMeta != 0 {
		if rec.Parsed == nil {
			return nil, fmt.Errorf("%w: domain meta without parsed record", ErrBadRecord)
		}
		rec.Parsed.NameServers = decodeStrings(r)
		rec.Parsed.Statuses = decodeStrings(r)
	}
	if r.Bad() {
		return nil, fmt.Errorf("%w: truncated payload", ErrBadRecord)
	}
	if !r.Done() {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadRecord, r.Remaining())
	}
	return rec, nil
}

// decodeStrings mirrors appendStrings. A zero count decodes to nil so
// the encoder/decoder stay exact mirrors (the encoder never writes an
// empty list without the gating flag's other half being non-empty).
func decodeStrings(r *Cursor) []string {
	n := r.Uvarint()
	if r.Bad() {
		return nil
	}
	// Each entry costs at least one byte (its length varint), so a count
	// beyond the remaining bytes is corrupt — reject before allocating.
	if n > uint64(r.Remaining()) {
		r.bad = true
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.Str()
	}
	return out
}

func decodeContact(r *Cursor, c *core.Contact) {
	c.Name = r.Str()
	c.ID = r.Str()
	c.Org = r.Str()
	c.Street = r.Str()
	c.City = r.Str()
	c.State = r.Str()
	c.Postcode = r.Str()
	c.Country = r.Str()
	c.Phone = r.Str()
	c.Fax = r.Str()
	c.Email = r.Str()
}

// Block frames. A block payload is
//
//	[blockKind] [count uvarint] [rawLen uvarint] [flate(raw)]
//
// where raw is the concatenation of count uvarint-length-prefixed record
// payloads. The frame envelope's CRC32C covers the compressed bytes, so
// every block keeps the same per-frame corruption detection as a plain
// record frame; rawLen bounds the decompression up front so a corrupt
// header can never balloon memory.
const (
	// maxBlockRaw caps a block's uncompressed size. CompressSealed
	// flushes well below this; the decoder refuses anything larger
	// before allocating.
	maxBlockRaw = 16 << 20
)

// ErrBadBlock marks a block payload that fails structural validation
// (bad counts, short decompression, trailing bytes).
var ErrBadBlock = errors.New("store: malformed block payload")

// decodeBlock splits a block payload into its record payloads. The
// returned slices alias one freshly allocated buffer, so they stay valid
// after the caller's frame buffer is reused. It never panics and bounds
// every allocation against the declared sizes.
func decodeBlock(payload []byte) ([][]byte, error) {
	r := NewCursor(payload)
	if kind := r.Byte(); r.Bad() || kind != blockKind {
		return nil, fmt.Errorf("%w: not a block", ErrBadBlock)
	}
	count := r.Uvarint()
	rawLen := r.Uvarint()
	if r.Bad() {
		return nil, fmt.Errorf("%w: truncated header", ErrBadBlock)
	}
	if rawLen > maxBlockRaw {
		return nil, fmt.Errorf("%w: %d raw bytes", ErrBadBlock, rawLen)
	}
	// The smallest valid record payload is several bytes; each entry also
	// carries a length prefix. Anything denser than 8 bytes/record is
	// structurally impossible — reject before allocating count headers.
	if count == 0 || count > rawLen/8+1 {
		return nil, fmt.Errorf("%w: %d records in %d raw bytes", ErrBadBlock, count, rawLen)
	}
	zr := flate.NewReader(bytes.NewReader(payload[r.pos:]))
	defer zr.Close()
	raw := make([]byte, int(rawLen))
	if _, err := io.ReadFull(zr, raw); err != nil {
		return nil, fmt.Errorf("%w: short decompression: %v", ErrBadBlock, err)
	}
	var one [1]byte
	if n, _ := zr.Read(one[:]); n != 0 {
		return nil, fmt.Errorf("%w: oversized decompression", ErrBadBlock)
	}
	out := make([][]byte, 0, count)
	br := NewCursor(raw)
	for i := uint64(0); i < count; i++ {
		if out = append(out, br.Bytes()); br.Bad() {
			return nil, fmt.Errorf("%w: truncated entry %d", ErrBadBlock, i)
		}
	}
	if !br.Done() {
		return nil, fmt.Errorf("%w: %d trailing raw bytes", ErrBadBlock, br.Remaining())
	}
	return out, nil
}

// isBlockPayload reports whether a frame payload is a compressed block.
func isBlockPayload(payload []byte) bool {
	return len(payload) > 0 && payload[0] == blockKind
}

// EncodeRecord appends rec's payload encoding to buf and returns the
// extended slice — the store's bounds-checked record codec exposed for
// the cluster shard protocol, whose wire format carries parsed records
// in exactly the segment-log payload layout (so the two can never drift
// apart on what a record is). The frame envelope (length, CRC) is the
// transport's business, not the payload's.
func EncodeRecord(buf []byte, rec *Record) []byte { return appendRecord(buf, rec) }

// DecodeRecord parses one payload produced by EncodeRecord (or read
// from a segment frame). It never panics or over-reads on corrupt
// input.
func DecodeRecord(payload []byte) (*Record, error) { return decodeRecord(payload) }

// AppendFrame wraps payload in the frame envelope that the segment log
// and the cluster wire share: length varint, bytes, CRC32C LE32.
func AppendFrame(buf, payload []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, Castagnoli))
}

// ReadFrame reads one AppendFrame envelope from r into *buf, growing it
// as needed, and returns the payload (valid until *buf is reused) and
// the bytes consumed. A clean end of input before the frame returns
// io.EOF; input that ends mid-frame returns ErrTornFrame; a length over
// limit returns ErrFrameTooBig before anything is allocated; an intact
// frame failing its checksum returns ErrBadChecksum. limit is the
// caller's constant: maxFramePayload for records, the cluster's for the
// wire.
func ReadFrame(r *bufio.Reader, buf *[]byte, limit int) (payload []byte, n int, err error) {
	// Length varint, byte by byte. Every limit fits 4 bytes (< 2^28);
	// anything longer is corruption, but at the tail of a segment it is
	// indistinguishable from a torn write, so it reports ErrTornFrame and
	// the caller decides.
	var size uint64
	for shift := uint(0); ; shift += 7 {
		c, rerr := r.ReadByte()
		if rerr != nil {
			if shift == 0 && rerr == io.EOF {
				return nil, n, io.EOF
			}
			return nil, n, ErrTornFrame
		}
		n++
		size |= uint64(c&0x7f) << shift
		if c < 0x80 {
			break
		}
		if shift >= 28 {
			return nil, n, ErrTornFrame
		}
	}
	if size > uint64(limit) {
		return nil, n, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, size)
	}
	need := int(size) + 4
	if cap(*buf) < need {
		*buf = make([]byte, need)
	}
	b := (*buf)[:need]
	if _, rerr := io.ReadFull(r, b); rerr != nil {
		return nil, n, ErrTornFrame
	}
	n += need
	payload = b[:size]
	if crc32.Checksum(payload, Castagnoli) != binary.LittleEndian.Uint32(b[size:]) {
		return nil, n, ErrBadChecksum
	}
	return payload, n, nil
}

// frameScanner streams a segment's frames with a single reusable
// payload buffer, so iterating a multi-gigabyte segment holds one frame
// in memory at a time. It tracks byte offsets for frame positions and
// for recovery truncation.
type frameScanner struct {
	r   *bufio.Reader // from frameReaders; nil once released
	off int64         // offset of the next unread byte
	buf []byte        // reusable payload buffer
}

// frameReaders recycles the scanners' 64 KiB read buffers, so a walk
// over a segment of a few records does not allocate one.
var frameReaders = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 1<<16) }}

func newFrameScanner(r io.Reader, start int64) *frameScanner {
	br := frameReaders.Get().(*bufio.Reader)
	br.Reset(r)
	return &frameScanner{r: br, off: start}
}

// release returns the read buffer to frameReaders; the scanner must not
// be read after. Calling it again does nothing.
func (fs *frameScanner) release() {
	if fs.r == nil {
		return
	}
	fs.r.Reset(nil)
	frameReaders.Put(fs.r)
	fs.r = nil
}

// next returns the next frame's payload and its start offset, with
// ReadFrame's errors. The payload is only valid until the following
// call.
func (fs *frameScanner) next() (payload []byte, start int64, err error) {
	start = fs.off
	payload, n, err := ReadFrame(fs.r, &fs.buf, maxFramePayload)
	fs.off += int64(n)
	return payload, start, err
}
