package main

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"time"
)

// reference is a fixed stdlib kernel — P-256 sign + verify of one digest.
// It shares no code with the program under test, so when it moves, the
// machine moved.
type reference struct {
	key    *ecdsa.PrivateKey
	digest [sha256.Size]byte
}

func newReference() (*reference, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, err
	}
	return &reference{key: key, digest: sha256.Sum256([]byte("bench reference"))}, nil
}

// ms runs the kernel n times and returns the median iteration in ms; the
// median, so that an interrupt landing on one iteration does not count.
func (r *reference) ms(n int) (float64, error) {
	samples := make([]float64, n)
	for i := range samples {
		start := time.Now()
		sig, err := ecdsa.SignASN1(rand.Reader, r.key, r.digest[:])
		if err != nil {
			return 0, err
		}
		if !ecdsa.VerifyASN1(&r.key.PublicKey, r.digest[:], sig) {
			return 0, fmt.Errorf("reference signature did not verify")
		}
		samples[i] = float64(time.Since(start)) / float64(time.Millisecond)
	}
	return median(samples), nil
}

const (
	// referenceMs is what the kernel takes on the reference machine, the
	// one refClock's seconds are quoted for (this box on an average day).
	referenceMs = 0.125
	// lapIters is how many kernel iterations follow each lap: ≈ 2.5 ms,
	// enough for a steady median.
	lapIters = 20
)

// refClock times an activity in reference seconds: the activity is cut
// into laps, the kernel runs after each, and every lap counts for its wall
// time scaled by how much faster or slower than the reference machine the
// kernel just ran. A shared box changes speed by 10–30 % from one second to
// the next and from one hour to the next; scaling lap by lap takes that out
// of a time that has to be compared across runs, which timing the whole
// activity against a kernel run before or after it does not.
type refClock struct {
	ref      *reference
	lapStart time.Time
	wall     time.Duration // the laps as timed
	scaled   time.Duration // the laps in reference time
}

func (c *refClock) start() { c.lapStart = time.Now() }

// lap closes the lap begun by start or the previous lap; the kernel's own
// time belongs to no lap.
func (c *refClock) lap() error {
	took := time.Since(c.lapStart)
	ms, err := c.ref.ms(lapIters)
	if err != nil {
		return err
	}
	c.wall += took
	c.scaled += time.Duration(float64(took) * referenceMs / ms)
	c.lapStart = time.Now()
	return nil
}
