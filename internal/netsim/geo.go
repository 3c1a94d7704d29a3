package netsim

import (
	"sort"
	"sync"
	"time"
)

// Geo maps endpoints to named regions and directed region pairs to link
// profiles — the geo-latency matrix of a WAN deployment. Install it on a
// Network with SetGeo; explicit SetLink overrides still win per pair.
//
// Inter-region profiles are directed, so asymmetric routes (a congested
// return path, a satellite uplink) are expressible. Pairs with no
// profile in either direction fall back to the zero profile.
type Geo struct {
	mu       sync.Mutex
	regions  []string
	regionOf map[string]string
	inter    map[linkKey]LinkProfile
	local    LinkProfile
}

// NewGeo creates an empty topology whose same-region links use local.
func NewGeo(local LinkProfile) *Geo {
	return &Geo{
		regionOf: make(map[string]string),
		inter:    make(map[linkKey]LinkProfile),
		local:    local,
	}
}

// AddRegion declares a region. Declaration order drives AssignRoundRobin.
func (g *Geo) AddRegion(name string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, r := range g.regions {
		if r == name {
			return
		}
	}
	g.regions = append(g.regions, name)
}

// Regions returns the declared regions in declaration order.
func (g *Geo) Regions() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]string, len(g.regions))
	copy(out, g.regions)
	return out
}

// SetInterRegion installs the directed profile from one region to
// another (declaring both regions if needed).
func (g *Geo) SetInterRegion(from, to string, p LinkProfile) {
	g.AddRegion(from)
	g.AddRegion(to)
	g.mu.Lock()
	defer g.mu.Unlock()
	g.inter[linkKey{from, to}] = p
}

// Assign places an endpoint in a region (declaring the region if
// needed). Assignments are by name, so a crashed node that rejoins under
// its old name keeps its region.
func (g *Geo) Assign(node, region string) {
	g.AddRegion(region)
	g.mu.Lock()
	defer g.mu.Unlock()
	g.regionOf[node] = region
}

// AssignRoundRobin spreads the nodes across the declared regions in
// order — the quickest way to place a 50-node cluster on a preset.
func (g *Geo) AssignRoundRobin(nodes ...string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i, node := range nodes {
		g.regionOf[node] = g.regions[i%len(g.regions)]
	}
}

// Region reports the region an endpoint is assigned to ("" if none).
func (g *Geo) Region(node string) string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.regionOf[node]
}

// Members returns the nodes assigned to a region, sorted by name.
func (g *Geo) Members(region string) []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	var out []string
	for node, r := range g.regionOf {
		if r == region {
			out = append(out, node)
		}
	}
	sort.Strings(out)
	return out
}

// profile resolves the directed profile between two endpoints. The
// second return is false when either endpoint has no region assignment.
func (g *Geo) profile(from, to string) (LinkProfile, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	rf, okF := g.regionOf[from]
	rt, okT := g.regionOf[to]
	if !okF || !okT {
		return LinkProfile{}, false
	}
	if rf == rt {
		return g.local, true
	}
	return g.inter[linkKey{rf, rt}], true
}

// ThreeRegions is a 3-region WAN preset (us-east, eu-west, ap-south)
// with asymmetric one-way delays in the ballpark of public-cloud
// inter-region routes and a small deterministic jitter. Loss is zero so
// drills add it explicitly where wanted.
func ThreeRegions() *Geo {
	g := NewGeo(LinkProfile{Delay: 500 * time.Microsecond, Jitter: 200 * time.Microsecond})
	g.AddRegion("us-east")
	g.AddRegion("eu-west")
	g.AddRegion("ap-south")
	g.SetInterRegion("us-east", "eu-west", LinkProfile{Delay: 38 * time.Millisecond, Jitter: 4 * time.Millisecond})
	g.SetInterRegion("eu-west", "us-east", LinkProfile{Delay: 42 * time.Millisecond, Jitter: 4 * time.Millisecond})
	g.SetInterRegion("us-east", "ap-south", LinkProfile{Delay: 92 * time.Millisecond, Jitter: 8 * time.Millisecond})
	g.SetInterRegion("ap-south", "us-east", LinkProfile{Delay: 98 * time.Millisecond, Jitter: 8 * time.Millisecond})
	g.SetInterRegion("eu-west", "ap-south", LinkProfile{Delay: 61 * time.Millisecond, Jitter: 6 * time.Millisecond})
	g.SetInterRegion("ap-south", "eu-west", LinkProfile{Delay: 67 * time.Millisecond, Jitter: 6 * time.Millisecond})
	return g
}

// FiveRegions extends the 3-region preset with us-west and ap-ne,
// giving a topology where the slowest pair is ~3.5x the fastest — the
// shape that exposes convergence protocols tuned on uniform latency.
func FiveRegions() *Geo {
	g := ThreeRegions()
	g.AddRegion("us-west")
	g.AddRegion("ap-ne")
	g.SetInterRegion("us-west", "us-east", LinkProfile{Delay: 31 * time.Millisecond, Jitter: 3 * time.Millisecond})
	g.SetInterRegion("us-east", "us-west", LinkProfile{Delay: 33 * time.Millisecond, Jitter: 3 * time.Millisecond})
	g.SetInterRegion("us-west", "eu-west", LinkProfile{Delay: 66 * time.Millisecond, Jitter: 6 * time.Millisecond})
	g.SetInterRegion("eu-west", "us-west", LinkProfile{Delay: 71 * time.Millisecond, Jitter: 6 * time.Millisecond})
	g.SetInterRegion("us-west", "ap-south", LinkProfile{Delay: 108 * time.Millisecond, Jitter: 10 * time.Millisecond})
	g.SetInterRegion("ap-south", "us-west", LinkProfile{Delay: 112 * time.Millisecond, Jitter: 10 * time.Millisecond})
	g.SetInterRegion("us-west", "ap-ne", LinkProfile{Delay: 54 * time.Millisecond, Jitter: 5 * time.Millisecond})
	g.SetInterRegion("ap-ne", "us-west", LinkProfile{Delay: 57 * time.Millisecond, Jitter: 5 * time.Millisecond})
	g.SetInterRegion("ap-ne", "us-east", LinkProfile{Delay: 74 * time.Millisecond, Jitter: 7 * time.Millisecond})
	g.SetInterRegion("us-east", "ap-ne", LinkProfile{Delay: 78 * time.Millisecond, Jitter: 7 * time.Millisecond})
	g.SetInterRegion("ap-ne", "eu-west", LinkProfile{Delay: 104 * time.Millisecond, Jitter: 9 * time.Millisecond})
	g.SetInterRegion("eu-west", "ap-ne", LinkProfile{Delay: 110 * time.Millisecond, Jitter: 9 * time.Millisecond})
	g.SetInterRegion("ap-ne", "ap-south", LinkProfile{Delay: 48 * time.Millisecond, Jitter: 5 * time.Millisecond})
	g.SetInterRegion("ap-south", "ap-ne", LinkProfile{Delay: 51 * time.Millisecond, Jitter: 5 * time.Millisecond})
	return g
}
