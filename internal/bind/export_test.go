package bind

import "modelnet/internal/topology"

// DistToNode exposes the kernel's full-field computation to the external
// benchmarks: the returned function computes the canonical distance field
// toward a target, reusing one kernel's scratch across calls.
func DistToNode(g *topology.Graph) func(target topology.NodeID) []Dist {
	return newGraphKernel(g).distToNode
}
