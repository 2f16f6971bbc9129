package datasynth

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/embedding"
)

// Binary dataset format:
//
//	magic "RFDS" | version u32 | numFeatures u32 | numBatches u32
//	per batch: per feature: numOffsets u32, offsets []i32, numIndices u32, indices []i32
//
// Little-endian throughout. The format stores only lookup data; model
// configuration travels separately (it is code, not data).

const (
	datasetMagic   = "RFDS"
	datasetVersion = 1
)

// WriteDataset serializes the dataset batches to w.
func WriteDataset(w io.Writer, ds *Dataset) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(datasetMagic); err != nil {
		return err
	}
	hdr := []uint32{datasetVersion, uint32(len(ds.Config.Features)), uint32(len(ds.Batches))}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, b := range ds.Batches {
		if len(b.Features) != len(ds.Config.Features) {
			return fmt.Errorf("datasynth: batch has %d features, config %d", len(b.Features), len(ds.Config.Features))
		}
		for f := range b.Features {
			fb := &b.Features[f]
			if err := binary.Write(bw, binary.LittleEndian, uint32(len(fb.Offsets))); err != nil {
				return err
			}
			if err := binary.Write(bw, binary.LittleEndian, fb.Offsets); err != nil {
				return err
			}
			if err := binary.Write(bw, binary.LittleEndian, uint32(len(fb.Indices))); err != nil {
				return err
			}
			if err := binary.Write(bw, binary.LittleEndian, fb.Indices); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadDataset deserializes batches written by WriteDataset. The returned
// dataset carries the provided config (which must match the stored feature
// count).
func ReadDataset(r io.Reader, cfg *ModelConfig) (*Dataset, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("datasynth: reading magic: %w", err)
	}
	if string(magic) != datasetMagic {
		return nil, fmt.Errorf("datasynth: bad magic %q", magic)
	}
	var version, numFeatures, numBatches uint32
	for _, p := range []*uint32{&version, &numFeatures, &numBatches} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, err
		}
	}
	if version != datasetVersion {
		return nil, fmt.Errorf("datasynth: unsupported version %d", version)
	}
	if int(numFeatures) != len(cfg.Features) {
		return nil, fmt.Errorf("datasynth: file has %d features, config %q has %d", numFeatures, cfg.Name, len(cfg.Features))
	}
	const sanityMax = 1 << 28
	ds := &Dataset{Config: cfg}
	for bi := uint32(0); bi < numBatches; bi++ {
		b := &embedding.Batch{Features: make([]embedding.FeatureBatch, numFeatures)}
		for f := uint32(0); f < numFeatures; f++ {
			var nOff uint32
			if err := binary.Read(br, binary.LittleEndian, &nOff); err != nil {
				return nil, err
			}
			if nOff == 0 || nOff > sanityMax {
				return nil, fmt.Errorf("datasynth: corrupt offset count %d", nOff)
			}
			offsets := make([]int32, nOff)
			if err := binary.Read(br, binary.LittleEndian, offsets); err != nil {
				return nil, err
			}
			var nIdx uint32
			if err := binary.Read(br, binary.LittleEndian, &nIdx); err != nil {
				return nil, err
			}
			if nIdx > sanityMax {
				return nil, fmt.Errorf("datasynth: corrupt index count %d", nIdx)
			}
			indices := make([]int32, nIdx)
			if nIdx > 0 {
				if err := binary.Read(br, binary.LittleEndian, indices); err != nil {
					return nil, err
				}
			}
			b.Features[f] = embedding.FeatureBatch{Indices: indices, Offsets: offsets}
		}
		ds.Batches = append(ds.Batches, b)
	}
	return ds, nil
}

// SaveDataset writes the dataset to path.
func SaveDataset(path string, ds *Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := WriteDataset(f, ds); err != nil {
		return err
	}
	return f.Close()
}
