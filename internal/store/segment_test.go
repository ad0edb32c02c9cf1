package store

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"testing"
)

// TestFingerprintOneBuffer: Fingerprint is CRC32C over the head and tail
// samples and the committed size, for a segment shorter than one sample
// (head and tail overlap) and one longer than two, and a call allocates
// no more than its one buffer.
func TestFingerprintOneBuffer(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	check := func(label string) {
		t.Helper()
		rs, err := st.OpenSegments()
		if err != nil {
			t.Fatal(err)
		}
		r := rs[len(rs)-1]
		defer r.Close()
		info := r.Info()
		data, err := os.ReadFile(info.Path)
		if err != nil {
			t.Fatal(err)
		}
		data = data[:info.Size]
		head := data[:min(fingerprintSample, len(data))]
		tail := data[max(len(data)-fingerprintSample, 0):]
		want := crc32.Update(0, Castagnoli, head)
		want = crc32.Update(want, Castagnoli, tail)
		want = crc32.Update(want, Castagnoli, binary.LittleEndian.AppendUint64(nil, uint64(info.Size)))
		got, err := r.Fingerprint()
		if err != nil || got != want {
			t.Fatalf("%s (%d bytes): Fingerprint = %#x, %v; want %#x", label, info.Size, got, err, want)
		}
		if raceEnabled {
			return
		}
		if allocs := testing.AllocsPerRun(50, func() { r.Fingerprint() }); allocs > 1 {
			t.Errorf("%s: Fingerprint allocates %.0f times per call, want at most 1", label, allocs)
		}
	}
	if err := st.Append(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	check("short segment")
	for i := 1; i < 200; i++ {
		if err := st.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	check("long segment")
}
