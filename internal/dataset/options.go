package dataset

// Option tunes the snapshot pipeline without ever changing its results.
// One documented option set covers every variadic entry point — Save,
// Load, FsckFile, WriteUniverse, MergeFilesAt and the streaming Writer
// and Reader — so a caller composing a pipeline (load → merge → save →
// fsck) threads the same options through all of it. There are no
// save-only or load-only options: every option is a layout or
// observability knob, and an entry point that has no use for a given
// option simply ignores it.
type Option func(*options)

type options struct {
	progress     ProgressFunc
	shardRecords int
}

func buildOptions(opts []Option) options {
	var o options
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// WithShardRecords sets the fixed record count per segment when writing
// the sharded directory layout (paths ending in ".d"); values <= 0 mean
// DefaultShardRecords. The count is a write-time layout choice recorded
// in the manifest — readers take segment boundaries from the directory,
// so the option is ignored by Load, FsckFile and single-file writes.
func WithShardRecords(n int) Option {
	return func(o *options) { o.shardRecords = n }
}

// ProgressFunc receives periodic per-section record counts while a
// snapshot streams through an entry point. Section is "users", "games" or
// "groups"; records is the total processed so far for that section.
// Calls arrive from the processing goroutine in monotonically
// non-decreasing order per section.
type ProgressFunc func(section string, records int)

// WithProgress registers a progress callback. The snapshot Writer (Save,
// WriteUniverse, the streaming merge) reports encoded records and the
// Reader (Load, FsckFile) decoded records, every jsonlChunk records and
// once more at the end of each section, for single files and sharded
// directories alike. A multi-GB operation is thereby observable (e.g. via
// obs gauges) instead of silent. The callback must be cheap.
func WithProgress(fn ProgressFunc) Option {
	return func(o *options) { o.progress = fn }
}
