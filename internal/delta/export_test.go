package delta

import "github.com/graphsd/graphsd/internal/wal"

// AppendWALBatch frames muts as batch seq and appends it, synced, to the
// mutation WAL in dir the way Apply frames a batch, but without validating
// the mutations or applying them: how a test plants a CRC-valid frame that
// Apply would never have written.
func AppendWALBatch(dir string, seq int64, muts []Mutation, weighted bool) error {
	log, err := wal.Open(dir, wal.Options{Prefix: "mutations", Magic: mutationMagic})
	if err != nil {
		return err
	}
	if err := log.Append(encodeBatch(nil, seq, muts, weighted), true); err != nil {
		log.Close()
		return err
	}
	return log.Close()
}
