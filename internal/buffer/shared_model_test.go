package buffer

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// lruModel is the byte-bounded LRU that Shared used to implement for itself,
// kept as the oracle for the store-with-a-clock that replaced it.
type lruModel struct {
	capacity, used, clock int64
	size, touch           map[Key]int64

	insertions, evictions, rejections int64
}

func (m *lruModel) hit(k Key) bool {
	if _, ok := m.size[k]; !ok {
		return false
	}
	m.clock++
	m.touch[k] = m.clock
	return true
}

func (m *lruModel) insert(k Key, size int64) {
	if size > m.capacity {
		m.rejections++
		return
	}
	for m.used+size > m.capacity {
		var victim Key
		oldest := int64(-1)
		for kk, t := range m.touch {
			if oldest < 0 || t < oldest {
				oldest, victim = t, kk
			}
		}
		m.used -= m.size[victim]
		delete(m.size, victim)
		delete(m.touch, victim)
		m.evictions++
	}
	m.clock++
	m.size[k], m.touch[k] = size, m.clock
	m.used += size
	m.insertions++
}

// TestSharedMatchesLRUModel drives a Shared cache and the model with one
// seeded sequence of hits, misses, failed loads and generation flips, raw and
// compressed, at capacities from "nothing fits" to "all fits", and requires
// the same resident set, occupancy and admission counters after every step.
func TestSharedMatchesLRUModel(t *testing.T) {
	boom := errors.New("boom")
	for _, compressed := range []bool{false, true} {
		for _, capacity := range []int64{0, 10, 100, 400, 1 << 20} {
			t.Run(fmt.Sprintf("compressed=%t/cap=%d", compressed, capacity), func(t *testing.T) {
				s := NewShared(capacity)
				if compressed {
					s = NewSharedCompressed(capacity)
				}
				m := &lruModel{capacity: capacity, size: map[Key]int64{}, touch: map[Key]int64{}}
				rng := rand.New(rand.NewSource(capacity + 7))
				var gen, hits, misses, saved int64
				for step := 0; step < 3000; step++ {
					if rng.Intn(40) == 0 {
						gen++ // a mutation: every key is addressed afresh
					}
					k := Key{I: rng.Intn(6), J: rng.Intn(3), Gen: gen}
					decoded := int64(40 + 30*k.I + 7*k.J)
					charge := decoded
					if compressed {
						charge = decoded / 4
					}
					fail := rng.Intn(8) == 0
					_, hit, err := s.GetOrLoadBlock(k, func() (Block, int64, error) {
						switch {
						case fail:
							return Block{}, 0, boom
						case compressed:
							return Block{Payload: make([]byte, charge)}, decoded, nil
						}
						return Block{Edges: mkEdges(k.I, k.J, 1)}, decoded, nil
					})
					wantHit := m.hit(k)
					switch {
					case wantHit:
						hits++
						saved += decoded
					case fail:
						misses++
					default:
						misses++
						m.insert(k, charge)
					}
					if hit != wantHit || (err != nil) != (fail && !wantHit) {
						t.Fatalf("step %d key %v: hit=%t err=%v, want hit=%t with fail=%t", step, k, hit, err, wantHit, fail)
					}
					st := s.Stats()
					if st.Hits != hits || st.Misses != misses || st.BytesSaved != saved ||
						st.Insertions != m.insertions || st.Evictions != m.evictions || st.Rejections != m.rejections ||
						s.Used() != m.used || s.Len() != len(m.size) {
						t.Fatalf("step %d key %v: cache %+v used=%d len=%d, model %+v hits=%d misses=%d saved=%d",
							step, k, st, s.Used(), s.Len(), *m, hits, misses, saved)
					}
					if compressed && st.CompressedHits != hits {
						t.Fatalf("step %d: %d compressed hits of %d hits", step, st.CompressedHits, hits)
					}
					for kk := range m.size {
						if !s.has(kk) {
							t.Fatalf("step %d key %v: model holds %v, cache does not", step, k, kk)
						}
					}
				}
				if capacity >= 100 && (hits == 0 || m.insertions == 0) {
					t.Fatalf("the sequence exercised nothing: hits=%d insertions=%d", hits, m.insertions)
				}
			})
		}
	}
}
