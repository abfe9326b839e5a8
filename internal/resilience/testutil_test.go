package resilience

import (
	"testing"

	"embeddedmpls/internal/lsm"
	"embeddedmpls/internal/router"
)

// diamondNet builds a diamond a-{b,c}-d with hardware planes; a-b-d is
// the low-metric primary, a-c-d the backup.
func diamondNet(t *testing.T) *router.Network {
	t.Helper()
	nodes := []router.NodeSpec{
		{Name: "a", Hardware: true, RouterType: lsm.LER},
		{Name: "b", Hardware: true, RouterType: lsm.LSR},
		{Name: "c", Hardware: true, RouterType: lsm.LSR},
		{Name: "d", Hardware: true, RouterType: lsm.LER},
	}
	links := []router.LinkSpec{
		{A: "a", B: "b", RateBPS: 10e6, Delay: 0.001, Metric: 1},
		{A: "b", B: "d", RateBPS: 10e6, Delay: 0.001, Metric: 1},
		{A: "a", B: "c", RateBPS: 10e6, Delay: 0.001, Metric: 5},
		{A: "c", B: "d", RateBPS: 10e6, Delay: 0.001, Metric: 5},
	}
	n, err := router.Build(nodes, links)
	if err != nil {
		t.Fatal(err)
	}
	return n
}
