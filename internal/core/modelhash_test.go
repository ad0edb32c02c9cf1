//go:build !amd64.v3

package core

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"repro/internal/crf"
	"repro/internal/optimize"
	"repro/internal/synth"
)

// TestTrainedModelBytesPinned pins the sha256 of Parser.WriteTo for a
// fixed corpus and training configuration, so a change that speeds up
// training cannot silently change the models it trains. The values are
// the bytes the textbook loops write (no score table, an unfused
// two-loop recursion, a gradient folded by Fill and AXPY); a change that
// moves them on purpose must say why and record new ones.
//
// It runs on amd64 only: elsewhere (arm64, and amd64 built with
// GOAMD64=v3, which the build constraint excludes) the compiler may fuse
// a multiply and an add into one rounding, which legitimately changes
// the bits.
func TestTrainedModelBytesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("model bytes are pinned for amd64, not %s", runtime.GOARCH)
	}
	recs := synth.GenerateLabeled(synth.Config{N: 60, Seed: 212})
	lbfgs := optimize.DefaultLBFGSConfig()
	lbfgs.MaxIterations = 15
	sgd := optimize.DefaultSGDConfig()
	sgd.Epochs = 3
	for _, tc := range []struct {
		name  string
		train crf.TrainConfig
		want  string
	}{
		{"lbfgs", crf.TrainConfig{LBFGS: lbfgs}, "882ffe020c7fdb46142cbc1d4c7121195384fac674c3f9a645e52c01aed347cc"},
		{"sgd", crf.TrainConfig{Method: "sgd", SGD: sgd}, "1409f6477b7c97dc86573be7155141138707c482b68a74a323fbd4ce6dcbca5a"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Train = tc.train
			p, _, err := Train(recs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			if _, err := p.WriteTo(h); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Fatalf("trained model sha256 %s, pinned %s", got, tc.want)
			}
		})
	}
}
