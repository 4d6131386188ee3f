package policy

// pageList is an intrusive doubly-linked list of pages with an index for
// O(1) membership tests and removal. It is the workhorse behind LRU, FIFO,
// 2Q and the ARC ghost lists.
//
// The front of the list is the most recently inserted/promoted end; the
// back is the eviction end for recency-ordered policies.
type pageList struct {
	head, tail *pageNode
	index      map[PageID]*pageNode
}

type pageNode struct {
	page       PageID
	prev, next *pageNode
}

func newPageList() *pageList {
	return &pageList{index: make(map[PageID]*pageNode)}
}

// Len returns the number of pages in the list.
func (l *pageList) Len() int { return len(l.index) }

// Contains reports whether p is in the list.
func (l *pageList) Contains(p PageID) bool {
	_, ok := l.index[p]
	return ok
}

// PushFront inserts p at the front. It panics if p is already present;
// callers move existing pages with MoveToFront.
func (l *pageList) PushFront(p PageID) {
	if _, ok := l.index[p]; ok {
		panic("policy: PushFront of page already in list")
	}
	n := &pageNode{page: p, next: l.head}
	if l.head != nil {
		l.head.prev = n
	}
	l.head = n
	if l.tail == nil {
		l.tail = n
	}
	l.index[p] = n
}

// Remove deletes p from the list and reports whether it was present.
func (l *pageList) Remove(p PageID) bool {
	n, ok := l.index[p]
	if !ok {
		return false
	}
	l.unlink(n)
	delete(l.index, p)
	return true
}

func (l *pageList) unlink(n *pageNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

// MoveToFront promotes p to the front and reports whether it was present.
func (l *pageList) MoveToFront(p PageID) bool {
	n, ok := l.index[p]
	if !ok {
		return false
	}
	if l.head == n {
		return true
	}
	l.unlink(n)
	n.next = l.head
	l.head.prev = n
	l.head = n
	if l.tail == nil {
		l.tail = n
	}
	return true
}

// Back returns the page at the back without removing it.
func (l *pageList) Back() (PageID, bool) {
	if l.tail == nil {
		return InvalidPage, false
	}
	return l.tail.page, true
}

// PopBack removes and returns the page at the back.
func (l *pageList) PopBack() (PageID, bool) {
	if l.tail == nil {
		return InvalidPage, false
	}
	p := l.tail.page
	l.unlink(l.tail)
	delete(l.index, p)
	return p, true
}

// Clear removes all pages.
func (l *pageList) Clear() {
	l.head, l.tail = nil, nil
	l.index = make(map[PageID]*pageNode)
}

// Each visits pages from front to back until fn returns false.
func (l *pageList) Each(fn func(p PageID) bool) {
	for n := l.head; n != nil; n = n.next {
		if !fn(n.page) {
			return
		}
	}
}
