// Package leakcheck lets a test assert that the code under it joined
// every goroutine it started.
package leakcheck

import (
	"runtime"
	"testing"
	"time"
)

// Joined notes the goroutine count; the returned check polls briefly
// until the count is back at that baseline, so a goroutine the code under
// test started and did not join fails the test.
func Joined(t testing.TB) func() {
	t.Helper()
	base := runtime.NumGoroutine()
	return func() {
		t.Helper()
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines at the check, %d at the start:\n%s",
					runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}
