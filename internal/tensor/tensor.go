// Package tensor provides the tensor abstraction ByteScheduler schedules:
// named, sized gradient/parameter tensors belonging to DNN layers, and
// zero-copy partitioning of a tensor into sub-tensors.
//
// The simulator never materializes tensor contents; only metadata (layer,
// name, byte size, partition offsets) matters for scheduling, exactly as in
// the paper where partitioning uses the frameworks' zero-copy slicing APIs.
package tensor

import "fmt"

// Tensor describes one communication unit: the gradient (push/all-reduce)
// and parameter (pull) blob of one named weight in one DNN layer.
type Tensor struct {
	// Layer is the 0-based index of the DNN layer the tensor belongs to,
	// counted from the input. Communication priority is derived from it:
	// lower layer index means higher priority (closer to the next
	// iteration's first forward op).
	Layer int
	// Name identifies the tensor within the layer, e.g. "weight" or "bias".
	Name string
	// Bytes is the tensor size in bytes.
	Bytes int64
}

// String returns a compact identifier such as "L03/weight(4096B)".
func (t Tensor) String() string {
	return fmt.Sprintf("L%02d/%s(%dB)", t.Layer, t.Name, t.Bytes)
}

// Sub is a partition (sub-tensor) of a parent tensor, covering
// [Offset, Offset+Bytes) of the parent.
type Sub struct {
	Parent Tensor
	// Index is the partition's position within the parent, 0-based.
	Index int
	// Count is the total number of partitions the parent was split into.
	Count int
	// Offset is the starting byte within the parent.
	Offset int64
	// Bytes is the partition size in bytes.
	Bytes int64
}

// String returns a compact identifier such as "L03/weight[2/5](1024B)".
func (s Sub) String() string {
	return fmt.Sprintf("L%02d/%s[%d/%d](%dB)", s.Parent.Layer, s.Parent.Name, s.Index, s.Count, s.Bytes)
}

// Partition splits t into sub-tensors no larger than unit bytes. A unit <= 0
// or >= t.Bytes yields a single partition covering the whole tensor. All
// partitions except possibly the last have exactly unit bytes, mirroring how
// the frameworks' zero-copy slicing splits flat buffers.
func Partition(t Tensor, unit int64) []Sub { return AppendPartition(nil, t, unit) }

// AppendPartition is Partition appending to dst, so a caller with storage
// for the common single-partition case allocates nothing.
func AppendPartition(dst []Sub, t Tensor, unit int64) []Sub {
	if t.Bytes <= 0 || unit <= 0 || unit >= t.Bytes {
		return append(dst, Sub{Parent: t, Index: 0, Count: 1, Offset: 0, Bytes: t.Bytes})
	}
	count := int((t.Bytes + unit - 1) / unit)
	if cap(dst)-len(dst) < count {
		dst = append(make([]Sub, 0, len(dst)+count), dst...)
	}
	var off int64
	for i := 0; i < count; i++ {
		size := unit
		if rem := t.Bytes - off; rem < size {
			size = rem
		}
		dst = append(dst, Sub{Parent: t, Index: i, Count: count, Offset: off, Bytes: size})
		off += size
	}
	return dst
}

// TotalBytes sums the sizes of the given tensors.
func TotalBytes(ts []Tensor) int64 {
	var sum int64
	for _, t := range ts {
		sum += t.Bytes
	}
	return sum
}
