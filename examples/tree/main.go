// Tree demonstrates §4.1's closing remark — "recursively structured data
// types such as trees can be output naturally using recursive insertion
// functions" — and the pC++ claim that collections support "arbitrary
// distributed data structures (e.g. distributed trees of objects) over the
// distributed array base".
//
// Each collection element holds the root of a local adaptive refinement
// tree (as in an AMR or Barnes-Hut code). Tree shapes differ per element,
// so element payloads vary wildly — exactly the irregular case d/streams
// target. The insertion function recurses over the tree; the extraction
// function rebuilds it.
//
//	go run ./examples/tree
package main

import (
	"fmt"
	"log"

	pcxx "pcxxstreams"
)

// treeNode is one node of an adaptive refinement tree.
type treeNode struct {
	Value    float64
	Children []*treeNode
}

// insert is the recursive insertion function of §4.1.
func (t *treeNode) insert(e *pcxx.Encoder) {
	e.Float64(t.Value)
	e.Uint32(uint32(len(t.Children)))
	for _, c := range t.Children {
		c.insert(e)
	}
}

// extract is the matching recursive extraction function.
func extract(d *pcxx.Decoder) *treeNode {
	t := &treeNode{Value: d.Float64()}
	n := d.SliceLen(1) // a corrupt count fails instead of looping 4 G times
	for i := 0; i < n; i++ {
		t.Children = append(t.Children, extract(d))
	}
	return t
}

func (t *treeNode) count() int {
	n := 1
	for _, c := range t.Children {
		n += c.count()
	}
	return n
}

func (t *treeNode) sum() float64 {
	s := t.Value
	for _, c := range t.Children {
		s += c.sum()
	}
	return s
}

func equal(a, b *treeNode) bool {
	if a.Value != b.Value || len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Children {
		if !equal(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// build creates a deterministic tree whose depth and fan-out vary with the
// element's global index (refinement depth differs per region).
func build(global, depth int) *treeNode {
	t := &treeNode{Value: float64(global) + float64(depth)/10}
	if depth <= 0 {
		return t
	}
	fan := (global+depth)%3 + 1
	for i := 0; i < fan; i++ {
		t.Children = append(t.Children, build(global*7+i, depth-1))
	}
	return t
}

// region is the collection element: a variable-shape refinement tree.
type region struct {
	Root *treeNode
}

// StreamInsert recurses over the tree (pcxx.Inserter).
func (r *region) StreamInsert(e *pcxx.Encoder) { r.Root.insert(e) }

// StreamExtract rebuilds the tree (pcxx.Extractor).
func (r *region) StreamExtract(d *pcxx.Decoder) { r.Root = extract(d) }

func main() {
	const nprocs, regions = 4, 16
	cfg := pcxx.Config{NProcs: nprocs, Profile: pcxx.CM5()}
	res, err := pcxx.Run(cfg, func(n *pcxx.Node) error {
		d, err := pcxx.NewDistribution(regions, nprocs, pcxx.Cyclic, 0)
		if err != nil {
			return err
		}
		forest, err := pcxx.NewCollection[region](n, d)
		if err != nil {
			return err
		}
		forest.Apply(func(g int, r *region) { r.Root = build(g, g%4+1) })

		s, err := pcxx.Open(n, d, "forest")
		if err != nil {
			return err
		}
		if err := pcxx.Insert[region](s, forest); err != nil {
			return err
		}
		if err := s.Write(); err != nil {
			return err
		}
		if err := s.Close(); err != nil {
			return err
		}

		// Restore under a different distribution: whole trees migrate
		// between nodes through the sorted read.
		rd, err := pcxx.NewDistribution(regions, nprocs, pcxx.Block, 0)
		if err != nil {
			return err
		}
		restored, err := pcxx.NewCollection[region](n, rd)
		if err != nil {
			return err
		}
		in, err := pcxx.OpenInput(n, rd, "forest")
		if err != nil {
			return err
		}
		defer in.Close()
		if err := in.Read(); err != nil {
			return err
		}
		if err := pcxx.Extract[region](in, restored); err != nil {
			return err
		}

		var bad error
		localNodes := 0
		restored.Apply(func(g int, r *region) {
			want := build(g, g%4+1)
			if !equal(r.Root, want) {
				bad = fmt.Errorf("region %d tree corrupted", g)
				return
			}
			localNodes += r.Root.count()
		})
		if bad != nil {
			return bad
		}
		total, err := n.Comm().Allreduce(float64(localNodes), 0 /* sum */)
		if err != nil {
			return err
		}
		if n.Rank() == 0 {
			fmt.Printf("%d refinement trees (%d tree nodes total) survived the round trip, redistributed CYCLIC→BLOCK\n",
				regions, int(total))
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("done in %.4f virtual seconds on a simulated CM-5\n", res.Elapsed)
}
