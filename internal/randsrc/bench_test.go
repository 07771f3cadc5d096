package randsrc

import (
	"fmt"
	"math/rand"
	"testing"
)

var sink uint64

// BenchmarkSeedAndDraw prices a source's whole life for a few draw counts:
// seeding plus that many Uint64 draws, eager (rand.NewSource) against lazy
// (an arena source). 273 is the last lazy draw; 274 materializes.
func BenchmarkSeedAndDraw(b *testing.B) {
	for _, draws := range []int{0, 5, 273, 274, 1000} {
		b.Run(fmt.Sprintf("eager/draws=%d", draws), func(b *testing.B) {
			var x uint64
			for i := 0; b.Loop(); i++ {
				s := rand.NewSource(int64(i)).(rand.Source64)
				for k := 0; k < draws; k++ {
					x += s.Uint64()
				}
			}
			sink = x
		})
		b.Run(fmt.Sprintf("lazy/draws=%d", draws), func(b *testing.B) {
			var x uint64
			for i := 0; b.Loop(); i++ {
				s := newSource(int64(i))
				for k := 0; k < draws; k++ {
					x += s.Uint64()
				}
			}
			sink = x
		})
	}
}
