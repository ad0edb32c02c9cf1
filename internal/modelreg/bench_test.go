package modelreg

import "testing"

func BenchmarkPublish(b *testing.B) {
	art, _ := artifacts(b)
	r := testRegistry(b)
	b.SetBytes(int64(len(art)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Publish(PublishRequest{Family: "default", Artifact: art}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkResolveServing(b *testing.B) {
	art, _ := artifacts(b)
	r := testRegistry(b)
	if _, err := r.Publish(PublishRequest{Family: "default", Artifact: art}); err != nil {
		b.Fatal(err)
	}
	promoteToServing(b, r, "default", "1.0.0")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.ResolveServing("default")
		if err != nil {
			b.Fatal(err)
		}
		if res.Version != "1.0.0" {
			b.Fatal("wrong version")
		}
	}
}

func BenchmarkVerify(b *testing.B) {
	art, _ := artifacts(b)
	r := testRegistry(b)
	if _, err := r.Publish(PublishRequest{Family: "default", Artifact: art}); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(art)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Verify("default", "1.0.0"); err != nil {
			b.Fatal(err)
		}
	}
}
