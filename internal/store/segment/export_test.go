package segment

import "github.com/seldel/seldel/internal/store"

// OpenHandles reports how many segment file handles are open: always at
// least the active segment's.
func (s *Store) OpenHandles() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, store.ErrClosed
	}
	open := 0
	for _, seg := range s.segs {
		if seg.f != nil {
			open++
		}
	}
	return open, nil
}
