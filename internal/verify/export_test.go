package verify

// WarmWorkersForTest reads how many warm-up queue workers are running.
func (p *Pool) WarmWorkersForTest() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.workersUp
}
