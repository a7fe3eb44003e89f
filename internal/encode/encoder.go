package encode

import (
	"fmt"
	"math"

	"raal/internal/physical"
	"raal/internal/sparksim"
	"raal/internal/tensor"
	"raal/internal/word2vec"
)

// SemanticMode selects how a node's execution statement is embedded.
type SemanticMode int

// Semantic embedding modes.
const (
	// Word2Vec embeds tokenized statements with skip-gram vectors
	// (the paper's choice).
	Word2Vec SemanticMode = iota
	// OneHot uses only the operator-type one-hot of Table II (the
	// strawman the paper argues against).
	OneHot
)

// Config controls encoder fitting.
type Config struct {
	Mode     SemanticMode
	MaxNodes int             // plans are padded/truncated to this many nodes
	W2V      word2vec.Config // used when Mode == Word2Vec
	MaxRes   sparksim.Resources
}

// DefaultConfig returns the defaults used across the experiments.
func DefaultConfig() Config {
	w := word2vec.DefaultConfig()
	w.Dim = 16
	return Config{
		Mode:     Word2Vec,
		MaxNodes: 42, // covers 5-join SMJ plans without truncation
		W2V:      w,
		MaxRes:   sparksim.MaxResources(),
	}
}

// NumStats is the size of the "other features" vector (Sec. IV-C).
const NumStats = 6

// nodeStatFeatures is the per-node statistics appended to each node vector.
const nodeStatFeatures = 2

// Encoder converts plans into model inputs. Fit it once on a training
// corpus, then encode any plan from the same benchmark.
type Encoder struct {
	cfg Config
	w2v *word2vec.Model
}

// Fit trains the encoder's semantic embedding on the statements of the
// given plans.
func Fit(plans []*physical.Plan, cfg Config) (*Encoder, error) {
	if cfg.MaxNodes <= 0 {
		return nil, fmt.Errorf("encode: MaxNodes must be positive, got %d", cfg.MaxNodes)
	}
	e := &Encoder{cfg: cfg}
	if cfg.Mode == Word2Vec {
		var corpus [][]string
		for _, p := range plans {
			for _, n := range p.Nodes {
				corpus = append(corpus, Tokenize(n.Statement()))
			}
		}
		m, err := word2vec.Train(corpus, cfg.W2V)
		if err != nil {
			return nil, fmt.Errorf("encode: training word2vec: %w", err)
		}
		e.w2v = m
	}
	return e, nil
}

// MaxNodes returns the padded sequence length.
func (e *Encoder) MaxNodes() int { return e.cfg.MaxNodes }

// semanticDim is the width of the semantic part of a node vector.
func (e *Encoder) semanticDim() int {
	if e.cfg.Mode == Word2Vec {
		return e.w2v.Dim
	}
	return physical.NumOpTypes
}

// NodeDim returns the width of one encoded node row:
// semantic ⊕ structure (MaxNodes) ⊕ per-node stats.
func (e *Encoder) NodeDim() int {
	return e.semanticDim() + e.cfg.MaxNodes + nodeStatFeatures
}

// Sample is one training/inference example for the deep cost models.
type Sample struct {
	// Nodes is MaxNodes×NodeDim: row i encodes plan node i (zero rows
	// beyond the plan's length).
	Nodes *tensor.Matrix
	// Mask marks real (non-padding) node rows.
	Mask []bool
	// Children[i][j] is true when node j is a child of node i — the
	// adjacency the node-aware attention layer restricts itself to.
	Children [][]bool
	// Resource is the Eq.-1 normalized resource vector.
	Resource []float64
	// Stats is the normalized "other features" vector.
	Stats []float64
	// CostSec is the ground-truth execution cost (the label); zero for
	// pure inference samples.
	CostSec float64
}

// EncodePlan encodes p executed (or estimated) under res.
func (e *Encoder) EncodePlan(p *physical.Plan, res sparksim.Resources) *Sample {
	mn := e.cfg.MaxNodes
	s := &Sample{
		Nodes:    tensor.New(mn, e.NodeDim()),
		Mask:     make([]bool, mn),
		Children: make([][]bool, mn),
		Resource: e.EncodeResource(res),
	}
	for i := range s.Children {
		s.Children[i] = make([]bool, mn)
	}

	n := len(p.Nodes)
	if n > mn {
		n = mn // truncate the deepest nodes; execution order keeps parents last
	}
	offStruct := e.semanticDim()
	offStats := offStruct + mn

	for i := 0; i < n; i++ {
		node := p.Nodes[len(p.Nodes)-n+i] // keep the top of the plan when truncating
		s.Mask[i] = true
		row := s.Nodes.Row(i)

		// 1. node-semantic embedding
		switch e.cfg.Mode {
		case Word2Vec:
			copy(row[:e.w2v.Dim], e.w2v.Embed(Tokenize(node.Statement())))
		case OneHot:
			row[int(node.Op)] = 1
		}

		// 2. plan-structure embedding: +1 at child positions, −1 at the
		// parent position (out-degree/in-degree signs, Sec. IV-C).
		for _, c := range node.Children {
			if j := c.ID - (len(p.Nodes) - n); j >= 0 && j < mn {
				row[offStruct+j] = 1
				s.Children[i][j] = true
			}
		}
		for j := 0; j < n; j++ {
			parent := p.Nodes[len(p.Nodes)-n+j]
			for _, c := range parent.Children {
				if c == node {
					row[offStruct+j] = -1
				}
			}
		}

		// 3. per-node statistics (estimates — truth is unknown at
		// prediction time).
		row[offStats] = logNorm(node.EstRows)
		row[offStats+1] = logNorm(node.EstRows * node.RowBytes)
	}

	s.Stats = e.statsVector(p)
	return s
}

// EncodeResource returns res's Eq.-1 normalized resource vector — the
// only resource-dependent field of an encoded Sample — in a freshly
// allocated slice.
func (e *Encoder) EncodeResource(res sparksim.Resources) []float64 {
	return res.Normalized(e.cfg.MaxRes)
}

// statsVector builds the global "other features": cardinality statistics
// the paper feeds alongside the plan embedding.
func (e *Encoder) statsVector(p *physical.Plan) []float64 {
	var scanBytes, maxEst float64
	joins, scans := 0, 0
	for _, n := range p.Nodes {
		switch n.Op {
		case physical.FileScan:
			scans++
			scanBytes += n.RawRows * n.RowBytes
		case physical.SortMergeJoin, physical.BroadcastHashJoin, physical.BroadcastNestedLoopJoin:
			joins++
		}
		if n.EstRows > maxEst {
			maxEst = n.EstRows
		}
	}
	return []float64{
		logNorm(p.Root.EstRows),
		logNorm(maxEst),
		logNorm(scanBytes),
		float64(joins) / 8,
		float64(scans) / 8,
		float64(len(p.Nodes)) / float64(e.cfg.MaxNodes),
	}
}

// logNorm squashes a magnitude into roughly [0,1] via log10 scaling
// (10^12 maps to 1).
func logNorm(v float64) float64 {
	if v < 0 {
		v = 0
	}
	return math.Log10(1+v) / 12
}
