package hashtable

import (
	"errors"
	"fmt"
)

// ErrCorrupt wraps structural-invariant violations found by Check.
var ErrCorrupt = errors.New("hashtable: corrupt")

// Scan visits every stored KV pair in bucket order, calling fn with
// buffers that are only valid during the call; return false to stop
// early. Scan issues the same DMAs a full table walk would (one read per
// bucket plus one per non-inline KV), so it doubles as a migration /
// verification workload generator.
func (t *Table) Scan(fn func(key, value []byte) bool) {
	// Scan keeps buffers of its own: fn may call back into the table,
	// whose operations reuse the table's scratch.
	var bs []bkt
	var data []byte
	for p := uint64(0); p < t.numBuckets; p++ {
		bs = bs[:0]
		for addr, ok := t.cfg.Index.Base+p*BucketBytes, true; ok; {
			bs = append(bs, bkt{})
			t.load(&bs[len(bs)-1], addr)
			addr, ok = t.next(&bs[len(bs)-1])
		}
		for bi := range bs {
			b := &bs[bi]
			for i := 0; i < SlotsPerBucket; {
				n, inline := b.span(i)
				if n == 0 {
					i++
					continue
				}
				var k, v []byte
				ok := true
				if inline {
					k, v, _ = b.inlineEntry(i)
				} else {
					ptr, _ := b.slotPtr(i)
					k, v, ok = t.readData(ptr*ptrGranule, b.typ(i), &data)
				}
				// Check reports unreadable data; Scan skips it.
				if ok && !fn(k, v) {
					return
				}
				i += n
			}
		}
	}
}

// CheckReport summarizes a structural verification pass.
type CheckReport struct {
	Keys         uint64
	PayloadBytes uint64
	ChainBuckets uint64
	MaxChainLen  int   // longest bucket chain (primary bucket = length 1)
	ChainLenSum  int   // sum of every chain's length
	ChainHist    []int // chain-length histogram, index = length-1
}

// Check walks the entire table verifying structural invariants — the
// fsck of the KVS. It verifies per bucket:
//
//   - inline entries: start/occupancy bitmaps consistent, entry bytes
//     confined to the slot area, non-empty keys;
//   - pointer slots: data parses, the stored key is non-empty, its
//     secondary hash matches the slot, and it hashes back to this chain;
//   - chain pointers: bucket-aligned and inside the slab region;
//
// and globally that key/payload counts match the table's accounting.
func (t *Table) Check() (CheckReport, error) {
	var rep CheckReport
	for b := uint64(0); b < t.numBuckets; b++ {
		chainLen := 0
		addr := t.cfg.Index.Base + b*BucketBytes
		seen := map[uint64]bool{}
		for {
			if seen[addr] {
				return rep, fmt.Errorf("%w: bucket %d: chain cycle at %#x", ErrCorrupt, b, addr)
			}
			seen[addr] = true
			chainLen++
			var bb bkt
			t.load(&bb, addr)
			if err := t.checkBucket(b, &bb, &rep); err != nil {
				return rep, err
			}
			c := bb.chain()
			if c == 0 {
				break
			}
			next, _ := chainAddr(c)
			if next%BucketBytes != 0 {
				return rep, fmt.Errorf("%w: bucket %d: misaligned chain pointer %#x", ErrCorrupt, b, next)
			}
			if !t.inSlab(next, BucketBytes) {
				return rep, fmt.Errorf("%w: bucket %d: chain pointer %#x outside the slab region", ErrCorrupt, b, next)
			}
			rep.ChainBuckets++
			addr = next
		}
		if chainLen > rep.MaxChainLen {
			rep.MaxChainLen = chainLen
		}
		rep.ChainLenSum += chainLen
		for len(rep.ChainHist) < chainLen {
			rep.ChainHist = append(rep.ChainHist, 0)
		}
		rep.ChainHist[chainLen-1]++
	}
	if rep.Keys != t.numKeys {
		return rep, fmt.Errorf("%w: walked %d keys, accounting says %d", ErrCorrupt, rep.Keys, t.numKeys)
	}
	if rep.PayloadBytes != t.payloadBytes {
		return rep, fmt.Errorf("%w: walked %d payload bytes, accounting says %d",
			ErrCorrupt, rep.PayloadBytes, t.payloadBytes)
	}
	if rep.ChainBuckets != t.chainBuckets {
		return rep, fmt.Errorf("%w: walked %d chain buckets, accounting says %d",
			ErrCorrupt, rep.ChainBuckets, t.chainBuckets)
	}
	return rep, nil
}

// checkBucket verifies one bucket's slots.
func (t *Table) checkBucket(primary uint64, b *bkt, rep *CheckReport) error {
	i := 0
	for i < SlotsPerBucket {
		if !b.occupied(i) {
			if b.isStart(i) {
				return fmt.Errorf("%w: bucket %d slot %d: start bit without occupancy",
					ErrCorrupt, primary, i)
			}
			i++
			continue
		}
		if b.isStart(i) {
			klen := int(b.raw[i*SlotBytes])
			vlen := int(b.raw[i*SlotBytes+1])
			n := inlineSlots(klen + vlen)
			if klen == 0 {
				return fmt.Errorf("%w: bucket %d slot %d: empty inline key", ErrCorrupt, primary, i)
			}
			if i+n > SlotsPerBucket || i*SlotBytes+2+klen+vlen > slotArea {
				return fmt.Errorf("%w: bucket %d slot %d: inline entry overflows slot area",
					ErrCorrupt, primary, i)
			}
			for j := 1; j < n; j++ {
				if !b.occupied(i + j) {
					return fmt.Errorf("%w: bucket %d slot %d: continuation slot %d not occupied",
						ErrCorrupt, primary, i, i+j)
				}
				if b.isStart(i + j) {
					return fmt.Errorf("%w: bucket %d slot %d: continuation slot %d marked start",
						ErrCorrupt, primary, i, i+j)
				}
			}
			key, value, _ := b.inlineEntry(i)
			if t.bucketIndex(t.hash(key)) != primary {
				return fmt.Errorf("%w: bucket %d: inline key %q does not hash here",
					ErrCorrupt, primary, key)
			}
			rep.Keys++
			rep.PayloadBytes += uint64(klen + len(value))
			i += n
			continue
		}
		// Pointer slot.
		ptr, sh := b.slotPtr(i)
		dataAddr := ptr * ptrGranule
		if dataAddr < t.cfg.Index.End() {
			return fmt.Errorf("%w: bucket %d slot %d: data pointer %#x inside the hash index",
				ErrCorrupt, primary, i, dataAddr)
		}
		var data []byte
		key, value, ok := t.readData(dataAddr, b.typ(i), &data)
		if !ok {
			return fmt.Errorf("%w: bucket %d slot %d: unreadable KV data at %#x",
				ErrCorrupt, primary, i, dataAddr)
		}
		if len(key) == 0 {
			return fmt.Errorf("%w: bucket %d slot %d: empty stored key", ErrCorrupt, primary, i)
		}
		h := t.hash(key)
		if t.bucketIndex(h) != primary {
			return fmt.Errorf("%w: bucket %d slot %d: key %q does not hash here",
				ErrCorrupt, primary, i, key)
		}
		if sechash(h) != sh {
			return fmt.Errorf("%w: bucket %d slot %d: secondary hash mismatch",
				ErrCorrupt, primary, i)
		}
		rep.Keys++
		rep.PayloadBytes += uint64(len(key) + len(value))
		i++
	}
	return nil
}
