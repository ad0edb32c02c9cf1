package whoisparse

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/store"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	corpus := GenerateCorpus(CorpusConfig{N: 200, Seed: 301})
	if len(corpus) != 200 {
		t.Fatalf("generated %d records", len(corpus))
	}
	parser, stats, err := Train(corpus, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if stats.BlockFeatures == 0 {
		t.Error("no block features")
	}

	// Parse a held-out record and check the labels against ground truth.
	held := GenerateCorpus(CorpusConfig{N: 10, Seed: 302})
	rec := held[0]
	parsed := parser.Parse(rec.Text)
	if len(parsed.Blocks) != len(rec.Lines) {
		t.Fatalf("parsed %d lines, record has %d", len(parsed.Blocks), len(rec.Lines))
	}
	errs := 0
	for i := range rec.Lines {
		if parsed.Blocks[i] != rec.Lines[i].Block {
			errs++
		}
	}
	if errs > 2 {
		t.Errorf("%d/%d lines mislabeled on held-out record", errs, len(rec.Lines))
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	corpus := GenerateCorpus(CorpusConfig{N: 120, Seed: 303})
	parser, _, err := Train(corpus, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "parser.model")
	if err := Save(parser, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	text := corpus[0].Text
	a := parser.Parse(text)
	b := loaded.Parse(text)
	for i := range a.Blocks {
		if a.Blocks[i] != b.Blocks[i] {
			t.Fatal("labels differ after save/load")
		}
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.model")); err == nil {
		t.Fatal("expected error")
	}
}

func TestLabeledIO(t *testing.T) {
	corpus := GenerateCorpus(CorpusConfig{N: 25, Seed: 304})
	var buf bytes.Buffer
	if err := WriteLabeled(&buf, corpus); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLabeled(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(corpus) {
		t.Fatalf("round trip lost records: %d vs %d", len(got), len(corpus))
	}
	for i := range got {
		if got[i].Text != corpus[i].Text || len(got[i].Lines) != len(corpus[i].Lines) {
			t.Fatalf("record %d corrupted in round trip", i)
		}
	}
}

func TestBlockConstants(t *testing.T) {
	if BlockRegistrant.String() != "registrant" || BlockNull.String() != "null" {
		t.Error("block constants miswired")
	}
}

// Save writes the versioned artifact format and Load verifies it; a bare
// parser gob (no envelope, no identity) is not a model artifact.
func TestSaveWritesVersionedArtifactAndRejectsBareGob(t *testing.T) {
	corpus := GenerateCorpus(CorpusConfig{N: 120, Seed: 305})
	parser, _, err := Train(corpus, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	artifact := filepath.Join(t.TempDir(), "parser.model")
	if err := Save(parser, artifact); err != nil {
		t.Fatal(err)
	}
	head, err := os.ReadFile(artifact)
	if err != nil {
		t.Fatal(err)
	}
	if len(head) < 4 || string(head[:4]) != "WMDL" {
		t.Fatalf("Save did not write the versioned artifact magic, got % x", head[:4])
	}

	text := corpus[0].Text
	want := parser.Parse(text)
	loaded, err := Load(artifact)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	got := loaded.Parse(text)
	for i := range want.Blocks {
		if want.Blocks[i] != got.Blocks[i] {
			t.Fatal("Load: labels differ from trained parser")
		}
	}

	bare := filepath.Join(t.TempDir(), "bare.model")
	var buf bytes.Buffer
	if _, err := parser.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bare, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bare); !errors.Is(err, store.ErrNotModel) {
		t.Fatalf("Load of a bare gob: err = %v, want store.ErrNotModel", err)
	}
	if _, err := ReadParser(bytes.NewReader(buf.Bytes())); !errors.Is(err, store.ErrNotModel) {
		t.Fatalf("ReadParser of a bare gob: err = %v, want store.ErrNotModel", err)
	}
}

func TestLoadRejectsCorruptArtifact(t *testing.T) {
	corpus := GenerateCorpus(CorpusConfig{N: 120, Seed: 306})
	parser, _, err := Train(corpus, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "parser.model")
	if err := Save(parser, path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF // flip a payload byte; the checksum must catch it
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("Load accepted an artifact with a corrupted payload")
	}
}
