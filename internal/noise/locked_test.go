package noise

import (
	"sync"
	"testing"
)

// TestLockedConcurrentDraws hammers a Locked seeded source from many
// goroutines. Run under -race this fails if Locked does not serialise
// access to the underlying *rand.Rand; the value checks catch a wrapper
// that forgets to delegate.
func TestLockedConcurrentDraws(t *testing.T) {
	src := Locked(NewSource(1))
	const goroutines, draws = 16, 2000
	var wg sync.WaitGroup
	errs := make(chan float64, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < draws; i++ {
				u := src.Float64()
				if u < 0 || u >= 1 {
					select {
					case errs <- u:
					default:
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if u, ok := <-errs; ok {
		t.Fatalf("Locked source produced %v outside [0, 1)", u)
	}
}

// TestLockedSameSequence checks that wrapping does not perturb the
// underlying stream: a Locked source consumed by one goroutine yields the
// same sequence as the bare source with the same seed.
func TestLockedSameSequence(t *testing.T) {
	bare := NewSource(7)
	locked := Locked(NewSource(7))
	for i := 0; i < 100; i++ {
		if b, l := bare.Float64(), locked.Float64(); b != l {
			t.Fatalf("draw %d: bare %v != locked %v", i, b, l)
		}
	}
}

// TestLockedIdempotent checks that double-wrapping returns the same
// wrapper rather than stacking mutexes.
func TestLockedIdempotent(t *testing.T) {
	l := Locked(NewSource(1))
	if Locked(l) != l {
		t.Fatal("Locked(Locked(src)) allocated a second wrapper")
	}
}
