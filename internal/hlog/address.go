// Package hlog implements FASTER's HybridLog allocator (§2.2): a single
// logical log whose address space spans an in-memory circular buffer of page
// frames, a local SSD (the stable region), and — in Shadowfax — a shared
// remote tier. The in-memory portion is split into a mutable region (records
// updated in place) and a read-only region (records being flushed; updates
// use read-copy-update).
//
// Region boundaries (head, read-only) move via asynchronous global cuts on
// the epoch manager, so no thread ever stalls to coordinate a flush or an
// eviction; each thread simply observes the new boundary at its next epoch
// refresh, and flush/eviction trigger actions fire once all threads have.
package hlog

// Address is a 48-bit logical byte offset into a HybridLog. Addresses are
// allocated monotonically, so numeric comparison against the region
// boundaries (begin, head, read-only, tail) classifies where a record lives.
// Address 0 is invalid: the first 64 bytes of the log are never allocated.
type Address uint64

// InvalidAddress is the null log pointer (hash-chain terminator).
const InvalidAddress Address = 0

// AddressBits is the width of an Address; the hash index and record headers
// store addresses in 48-bit fields.
const AddressBits = 48

// AddressMask extracts an Address from a packed word.
const AddressMask = (uint64(1) << AddressBits) - 1

// MinAddress is the first allocatable address (start-of-log pad).
const MinAddress Address = 64

// Page returns the page number containing a for the given page-size bits.
func (a Address) Page(pageBits uint) uint64 { return uint64(a) >> pageBits }
