package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// An epoch batch multiplexes many client payloads into the single
// packet a node injects per (node, epoch): the compaction step that
// turns the per-round ATA schedule into a streaming service. Layout,
// little-endian:
//
//	count u16 | per item: flags u8 | len u16 | data
//
// flag bit 0 marks a high-priority item. An empty batch (count 0) is
// the heartbeat a node with no queued traffic injects — the schedule
// runs every epoch regardless, because the γ-copy ledger postcondition
// is per (source, channel), not per payload.
//
// Batches arrive inside HMAC-verified frames, but the codec still
// bounds-checks every length: a buggy or malicious *signer* must
// surface as a decode error, never a panic or over-allocation.

// Item is one client payload inside an epoch batch.
type Item struct {
	High bool
	Data []byte
}

const (
	batchHdr     = 2
	itemOverhead = 3
	maxBatchLen  = 1 << 12
)

var ErrBatchCorrupt = errors.New("stream: corrupt epoch batch")

// BatchBytes returns the encoded size of a batch holding the given
// item data lengths — what the ingress drain uses to pack a byte
// budget exactly.
func BatchBytes(itemLens []int) int {
	n := batchHdr
	for _, l := range itemLens {
		n += itemOverhead + l
	}
	return n
}

// EncodeBatch serialises items into one epoch payload.
func EncodeBatch(items []Item) ([]byte, error) {
	if len(items) > maxBatchLen {
		return nil, fmt.Errorf("stream: batch of %d items exceeds %d", len(items), maxBatchLen)
	}
	n := batchHdr
	for _, it := range items {
		if len(it.Data) > 1<<16-1 {
			return nil, fmt.Errorf("stream: batch item of %d bytes exceeds u16", len(it.Data))
		}
		n += itemOverhead + len(it.Data)
	}
	b := make([]byte, 0, n)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(items)))
	for _, it := range items {
		var flags byte
		if it.High {
			flags |= 1
		}
		b = append(b, flags)
		b = binary.LittleEndian.AppendUint16(b, uint16(len(it.Data)))
		b = append(b, it.Data...)
	}
	return b, nil
}

// DecodeBatch parses an epoch payload. Every length is validated
// before use; trailing bytes are an error (a truncated or padded batch
// must not half-decode). Each item's data is copied out of b.
func DecodeBatch(b []byte) ([]Item, error) {
	n, _, err := batchCount(b)
	if err != nil {
		return nil, err
	}
	items := make([]Item, 0, n)
	// b passed batchCount's walk, so this one cannot fail.
	_ = walkBatch(b, func(high bool, data []byte) {
		it := Item{High: high}
		if len(data) > 0 {
			it.Data = append([]byte(nil), data...)
		}
		items = append(items, it)
	})
	return items, nil
}

// batchCount returns a batch's item count and the total of its items'
// data lengths, allocating nothing. It fails exactly when DecodeBatch
// does.
func batchCount(b []byte) (items, size int, err error) {
	err = walkBatch(b, func(_ bool, data []byte) {
		items++
		size += len(data)
	})
	if err != nil {
		return 0, 0, err
	}
	return items, size, nil
}

// walkBatch is the one validating pass over an encoded batch: it checks
// every length before use and calls item for each item in order, data
// aliasing b. A batch that fails a check is ErrBatchCorrupt, and item
// may have seen some of its items by then.
func walkBatch(b []byte, item func(high bool, data []byte)) error {
	if len(b) < batchHdr {
		return ErrBatchCorrupt
	}
	count := int(binary.LittleEndian.Uint16(b))
	if count > maxBatchLen {
		return ErrBatchCorrupt
	}
	off := batchHdr
	for i := 0; i < count; i++ {
		if len(b) < off+itemOverhead {
			return ErrBatchCorrupt
		}
		flags := b[off]
		if flags > 1 {
			return ErrBatchCorrupt
		}
		l := int(binary.LittleEndian.Uint16(b[off+1:]))
		off += itemOverhead
		if len(b) < off+l {
			return ErrBatchCorrupt
		}
		item(flags&1 != 0, b[off:off+l])
		off += l
	}
	if off != len(b) {
		return ErrBatchCorrupt
	}
	return nil
}
