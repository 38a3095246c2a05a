package nn

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Checkpointing: a compact binary format for network weights. The format
// stores each parameter as (name, shape, float32 payload) and is loaded
// back into a structurally identical network (build the topology with
// the same constructor, then LoadWeights). Masks and optimiser state are
// deliberately not stored — a checkpoint is a deployable artifact, and
// pruned weights are exact zeros that survive the roundtrip.

// checkpointMagic identifies the format ("DLIS" + version 1).
var checkpointMagic = [8]byte{'D', 'L', 'I', 'S', 'C', 'K', 'P', '1'}

// SaveWeights writes every parameter of the network to w.
func (n *Network) SaveWeights(w io.Writer) error {
	if _, err := w.Write(checkpointMagic[:]); err != nil {
		return fmt.Errorf("nn: checkpoint header: %w", err)
	}
	params := n.Params()
	if err := binary.Write(w, binary.LittleEndian, uint32(len(params))); err != nil {
		return err
	}
	for _, p := range params {
		if err := writeString(w, p.Name); err != nil {
			return err
		}
		shape := p.W.Shape()
		if err := binary.Write(w, binary.LittleEndian, uint32(len(shape))); err != nil {
			return err
		}
		for _, d := range shape {
			if err := binary.Write(w, binary.LittleEndian, uint32(d)); err != nil {
				return err
			}
		}
		buf := make([]byte, 4*len(p.W.Data()))
		for i, v := range p.W.Data() {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
		}
		if _, err := w.Write(buf); err != nil {
			return fmt.Errorf("nn: checkpoint payload for %s: %w", p.Name, err)
		}
	}
	// Batch-norm running statistics travel with the weights: collect
	// them in layer order.
	bns := n.batchNorms()
	if err := binary.Write(w, binary.LittleEndian, uint32(len(bns))); err != nil {
		return err
	}
	for _, bn := range bns {
		if err := writeString(w, bn.LayerName); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, uint32(bn.C)); err != nil {
			return err
		}
		for _, arr := range [][]float32{bn.RunningMean, bn.RunningVar} {
			buf := make([]byte, 4*len(arr))
			for i, v := range arr {
				binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
			}
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
	}
	return nil
}

// LoadWeights reads a checkpoint written by SaveWeights into this
// network. Parameter names and shapes must match exactly — the network
// must be built with the same topology (and, for channel-pruned
// checkpoints, the same surgery applied).
func (n *Network) LoadWeights(r io.Reader) error {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return fmt.Errorf("nn: checkpoint header: %w", err)
	}
	if magic != checkpointMagic {
		return fmt.Errorf("nn: not a DLIS checkpoint (magic %q)", magic[:])
	}
	var count uint32
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return err
	}
	params := n.Params()
	if int(count) != len(params) {
		return fmt.Errorf("nn: checkpoint has %d parameters, network has %d", count, len(params))
	}
	for _, p := range params {
		name, err := readString(r)
		if err != nil {
			return err
		}
		if name != p.Name {
			return fmt.Errorf("nn: checkpoint parameter %q, network expects %q", name, p.Name)
		}
		var rank uint32
		if err := binary.Read(r, binary.LittleEndian, &rank); err != nil {
			return err
		}
		shape := make([]int, rank)
		for i := range shape {
			var d uint32
			if err := binary.Read(r, binary.LittleEndian, &d); err != nil {
				return err
			}
			shape[i] = int(d)
		}
		want := p.W.Shape()
		if len(shape) != len(want) {
			return fmt.Errorf("nn: %s rank %d, want %d", name, len(shape), len(want))
		}
		for i := range shape {
			if shape[i] != want[i] {
				return fmt.Errorf("nn: %s shape %v, want %v", name, shape, want)
			}
		}
		buf := make([]byte, 4*p.W.NumElements())
		if _, err := io.ReadFull(r, buf); err != nil {
			return fmt.Errorf("nn: payload for %s: %w", name, err)
		}
		data := p.W.Data()
		for i := range data {
			data[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
		}
	}
	var bnCount uint32
	if err := binary.Read(r, binary.LittleEndian, &bnCount); err != nil {
		return err
	}
	bns := n.batchNorms()
	if int(bnCount) != len(bns) {
		return fmt.Errorf("nn: checkpoint has %d batch-norms, network has %d", bnCount, len(bns))
	}
	for _, bn := range bns {
		name, err := readString(r)
		if err != nil {
			return err
		}
		if name != bn.LayerName {
			return fmt.Errorf("nn: checkpoint batch-norm %q, network expects %q", name, bn.LayerName)
		}
		var c uint32
		if err := binary.Read(r, binary.LittleEndian, &c); err != nil {
			return err
		}
		if int(c) != bn.C {
			return fmt.Errorf("nn: %s has %d channels, want %d", name, c, bn.C)
		}
		for _, arr := range [][]float32{bn.RunningMean, bn.RunningVar} {
			buf := make([]byte, 4*len(arr))
			if _, err := io.ReadFull(r, buf); err != nil {
				return err
			}
			for i := range arr {
				arr[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
			}
		}
	}
	// Every cached weight view, and any plan compiled over one, is now
	// stale.
	n.Freeze()
	return nil
}

// batchNorms collects batch-norm layers in execution order, descending
// into residual blocks.
func (n *Network) batchNorms() []*BatchNorm {
	var bns []*BatchNorm
	for _, l := range n.Layers {
		switch v := l.(type) {
		case *BatchNorm:
			bns = append(bns, v)
		case *ResidualBlock:
			bns = append(bns, v.BN1, v.BN2)
			if v.SkipBN != nil {
				bns = append(bns, v.SkipBN)
			}
		}
	}
	return bns
}

func writeString(w io.Writer, s string) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r io.Reader) (string, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("nn: implausible string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
