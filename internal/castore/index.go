package castore

// diskIndex is the disk tier's LRU index. A map takes the first 8 bytes of
// a hash to a slot, and the slots live in fixed pages, linked most recent
// first by int32 indices. Nothing in a slot is a pointer, so the garbage
// collector never scans them, and the index grows a page at a time without
// copying a slot. Two hashes that share their first 8 bytes share one
// slot; the full hash in the record, which every hit checks, decides
// between them.
type diskIndex struct {
	slots map[uint64]int32
	pages []*[indexPage]slot
	used  int32 // slots ever handed out; the free list recycles the rest
	free  int32 // first free slot, linked through next
	head  int32 // most recently used
	tail  int32 // least recently used
}

// slot is one indexed record.
type slot struct {
	key        uint64 // the hash's first 8 bytes
	off        int64  // record offset in the log
	size       int32  // record bytes, header included; 0 while free
	prev, next int32  // toward head and toward tail
}

const (
	indexPage = 1024 // slots per page (32 KiB)
	none      = -1
)

func newDiskIndex() diskIndex {
	return diskIndex{slots: make(map[uint64]int32), free: none, head: none, tail: none}
}

func (x *diskIndex) at(i int32) *slot { return &x.pages[i/indexPage][i%indexPage] }

// insert adds key as the most recently used entry and returns its slot.
func (x *diskIndex) insert(key uint64, off int64, size int32) int32 {
	i := x.free
	if i != none {
		x.free = x.at(i).next
	} else {
		if int(x.used) == len(x.pages)*indexPage {
			x.pages = append(x.pages, new([indexPage]slot))
		}
		i = x.used
		x.used++
	}
	*x.at(i) = slot{key: key, off: off, size: size, prev: none, next: none}
	x.linkFront(i)
	x.slots[key] = i
	return i
}

// remove unindexes slot i and frees it.
func (x *diskIndex) remove(i int32) {
	x.unlink(i)
	s := x.at(i)
	delete(x.slots, s.key)
	s.size = 0
	s.next = x.free
	x.free = i
}

// touch makes slot i the most recently used.
func (x *diskIndex) touch(i int32) {
	if i != x.head {
		x.unlink(i)
		x.linkFront(i)
	}
}

func (x *diskIndex) linkFront(i int32) {
	s := x.at(i)
	s.prev, s.next = none, x.head
	if x.head != none {
		x.at(x.head).prev = i
	} else {
		x.tail = i
	}
	x.head = i
}

func (x *diskIndex) unlink(i int32) {
	s := x.at(i)
	if s.prev != none {
		x.at(s.prev).next = s.next
	} else {
		x.head = s.next
	}
	if s.next != none {
		x.at(s.next).prev = s.prev
	} else {
		x.tail = s.prev
	}
}
