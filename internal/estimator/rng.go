package estimator

import (
	"encoding/binary"
	"math/rand/v2"

	"github.com/spatiotext/latest/internal/persist"
)

// newRand returns a sampler's generator: a PCG whose state is its 128 bits,
// so an image holds the state itself and restores in O(1). The seed is the
// high state word and the low word starts at zero. That is exactly what the
// image of a sampler that had not drawn held when images held a seed and a
// draw count, so such an image restores to the generator a fresh sampler
// starts from.
func newRand(seed int64) (*rand.PCG, *rand.Rand) {
	src := rand.NewPCG(uint64(seed), 0)
	return src, rand.New(src)
}

// saveRNG appends the generator's two state words, high first.
func saveRNG(e *persist.Enc, src *rand.PCG) {
	b, _ := src.MarshalBinary() // "pcg:", then the high and low words big-endian
	e.U64(binary.BigEndian.Uint64(b[4:]))
	e.U64(binary.BigEndian.Uint64(b[12:]))
}
