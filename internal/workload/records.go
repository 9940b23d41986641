package workload

import (
	"encoding/binary"

	"optanestudy/internal/sim"
)

// Record is one key-value pair for the db_bench-style workloads.
type Record struct {
	Key   []byte
	Value []byte
}

// RecordGen produces key-value records with fixed key and value sizes, like
// RocksDB's db_bench (the paper uses 20-byte keys and 100-byte values).
type RecordGen struct {
	rng       *sim.RNG
	keySize   int
	valueSize int
	keySpace  int64
}

// NewRecordGen returns a generator of uniformly random keys in a key space.
func NewRecordGen(keySize, valueSize int, keySpace int64, seed uint64) *RecordGen {
	if keySize < 8 || valueSize < 0 || keySpace <= 0 {
		panic("workload: bad record generator parameters")
	}
	return &RecordGen{
		rng:       sim.NewRNG(seed),
		keySize:   keySize,
		valueSize: valueSize,
		keySpace:  keySpace,
	}
}

// KeyFor renders the fixed-width key for id: an 8-byte big-endian id (so
// byte order matches numeric order) padded with deterministic filler.
func (g *RecordGen) KeyFor(id int64) []byte {
	key := make([]byte, g.keySize)
	binary.BigEndian.PutUint64(key, uint64(id))
	for i := 8; i < g.keySize; i++ {
		key[i] = byte('a' + (id+int64(i))%26)
	}
	return key
}

// Next produces the next record.
func (g *RecordGen) Next() Record {
	id := g.rng.Int63n(g.keySpace)
	val := make([]byte, g.valueSize)
	fill := g.rng.Uint64()
	for i := range val {
		val[i] = byte(fill >> (8 * (uint(i) % 8)))
		if i%8 == 7 {
			fill = g.rng.Uint64()
		}
	}
	return Record{Key: g.KeyFor(id), Value: val}
}
