package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"aptrace/internal/event"
	"aptrace/internal/simclock"
)

// On-disk layout: a store directory contains
//
//	manifest.json   - version, partitioning, segment index
//	objects.dat     - the interned object table
//	seg-NNNNN.dat   - fixed-size event records, partitioned by time span
//
// Each .dat file is framed as: 4-byte magic, u32 version, u64 record count,
// payload, u32 CRC-32 (IEEE) of everything before the checksum. Segments are
// immutable once written; this mirrors the sealed-segment design of
// log-structured stores and keeps recovery trivial (a bad checksum names the
// exact damaged file).

const (
	formatVersion = 1

	objectsFile  = "objects.dat"
	manifestFile = "manifest.json"

	// segmentBuckets is the number of time buckets per segment file:
	// 24 one-hour buckets, i.e. one file per day at default settings.
	segmentBuckets = 24
)

var (
	magicObjects = [4]byte{'A', 'P', 'T', 'O'}
	magicEvents  = [4]byte{'A', 'P', 'T', 'E'}
)

// manifest is the JSON index of a persisted store directory.
type manifest struct {
	Version       int   `json:"version"`
	BucketSeconds int64 `json:"bucket_seconds"`
	Events        int   `json:"events"`
	Objects       int   `json:"objects"`
	// Shards records the host×time shard layout the store was built with
	// (absent = one part). Open re-creates the same layout unless the caller
	// overrides it with WithShards. Segment files themselves are laid out in
	// global time order regardless of sharding, so a store saved with any
	// shard count produces byte-identical segment files.
	Shards            int           `json:"shards,omitempty"`
	ShardEpochSeconds int64         `json:"shard_epoch_seconds,omitempty"`
	Segments          []segmentMeta `json:"segments"`
}

type segmentMeta struct {
	File    string `json:"file"`
	MinTime int64  `json:"min_time"` // inclusive
	MaxTime int64  `json:"max_time"` // inclusive
	Count   int    `json:"count"`
}

func frame(magic [4]byte, count uint64, payload []byte) []byte {
	buf := make([]byte, 0, len(payload)+20)
	buf = append(buf, magic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, formatVersion)
	buf = binary.LittleEndian.AppendUint64(buf, count)
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

func unframe(magic [4]byte, buf []byte) (count uint64, payload []byte, err error) {
	if len(buf) < 20 {
		return 0, nil, errors.New("file too short")
	}
	body, sum := buf[:len(buf)-4], binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return 0, nil, errors.New("checksum mismatch")
	}
	if [4]byte(body[:4]) != magic {
		return 0, nil, fmt.Errorf("bad magic %q", body[:4])
	}
	if v := binary.LittleEndian.Uint32(body[4:]); v != formatVersion {
		return 0, nil, fmt.Errorf("unsupported format version %d", v)
	}
	return binary.LittleEndian.Uint64(body[8:]), body[16:], nil
}

// Save persists a sealed store into dir, creating it if needed.
// Existing store files in dir are overwritten atomically per file
// (write to temp + rename).
func (s *Store) Save(dir string) error {
	if !s.sealed {
		return ErrNotSealed
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: create dir: %w", err)
	}

	// Object table.
	var objPayload []byte
	for _, o := range s.objects {
		objPayload = event.AppendObject(objPayload, o)
	}
	if err := writeFileAtomic(filepath.Join(dir, objectsFile), frame(magicObjects, uint64(len(s.objects)), objPayload)); err != nil {
		return err
	}

	// Event segments, partitioned by time span, written in the order of the
	// global time-order directory: segment bytes do not depend on the part
	// count.
	total := s.NumEvents()
	man := manifest{
		Version:       formatVersion,
		BucketSeconds: s.bucketSeconds,
		Events:        total,
		Objects:       len(s.objects),
	}
	if n := len(s.parts); n > 1 {
		man.Shards = n
		man.ShardEpochSeconds = s.ShardEpochSeconds()
	}
	span := s.bucketSeconds * segmentBuckets
	i := 0
	for i < total {
		first := s.EventAt(i)
		segStart := first.Time - (first.Time % span)
		segEnd := segStart + span // exclusive
		j := i
		var payload []byte
		var last event.Event
		for j < total {
			e := s.EventAt(j)
			if e.Time >= segEnd {
				break
			}
			payload = event.AppendEvent(payload, e)
			last = e
			j++
		}
		name := fmt.Sprintf("seg-%05d.dat", len(man.Segments))
		if err := writeFileAtomic(filepath.Join(dir, name), frame(magicEvents, uint64(j-i), payload)); err != nil {
			return err
		}
		man.Segments = append(man.Segments, segmentMeta{
			File:    name,
			MinTime: first.Time,
			MaxTime: last.Time,
			Count:   j - i,
		})
		i = j
	}

	manJSON, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fmt.Errorf("store: marshal manifest: %w", err)
	}
	return writeFileAtomic(filepath.Join(dir, manifestFile), manJSON)
}

func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("store: write %s: %w", filepath.Base(path), err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("store: finalize %s: %w", filepath.Base(path), err)
	}
	return nil
}

// Open loads a persisted store directory, rebuilds indexes, and returns a
// sealed, query-ready store charging costs to clk.
func Open(dir string, clk simclock.Clock, opts ...Option) (*Store, error) {
	st, err := load(dir, clk, opts...)
	if err != nil {
		return nil, err
	}
	if err := st.Seal(); err != nil {
		return nil, err
	}
	return st, nil
}

// load reads a persisted store directory into an unsealed store: the object
// table, then every segment's events routed into the parts in global time
// order. Open seals the result; a live store keeps writing into it.
func load(dir string, clk simclock.Clock, opts ...Option) (*Store, error) {
	manJSON, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return nil, fmt.Errorf("store: read manifest: %w", err)
	}
	var man manifest
	if err := json.Unmarshal(manJSON, &man); err != nil {
		return nil, fmt.Errorf("store: parse manifest: %w", err)
	}
	if man.Version != formatVersion {
		return nil, fmt.Errorf("store: unsupported manifest version %d", man.Version)
	}
	if man.BucketSeconds <= 0 || man.Events < 0 {
		return nil, fmt.Errorf("store: manifest: bucket_seconds %d, events %d", man.BucketSeconds, man.Events)
	}

	st := New(clk, opts...)
	st.bucketSeconds = man.BucketSeconds
	// Re-create the persisted shard layout unless the caller overrode it
	// with WithShards (which also covers "reshard on open" and "flatten on
	// open" — the store's contents are identical either way).
	if !st.shardSet {
		if err := st.configureShards(man.Shards, man.ShardEpochSeconds); err != nil {
			return nil, fmt.Errorf("store: manifest shards: %w", err)
		}
	}

	// Object table.
	raw, err := os.ReadFile(filepath.Join(dir, objectsFile))
	if err != nil {
		return nil, fmt.Errorf("store: read objects: %w", err)
	}
	count, payload, err := unframe(magicObjects, raw)
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", objectsFile, err)
	}
	if count > uint64(len(payload)) {
		return nil, fmt.Errorf("store: %s: %d objects in %d bytes", objectsFile, count, len(payload))
	}
	st.objects = make([]event.Object, 0, count)
	for n := uint64(0); n < count; n++ {
		var o event.Object
		o, payload, err = event.DecodeObject(payload)
		if err != nil {
			return nil, fmt.Errorf("store: %s object %d: %w", objectsFile, n, err)
		}
		st.objects = append(st.objects, o)
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("store: %s: %d trailing bytes", objectsFile, len(payload))
	}

	// Segments. The manifest's event count sizes the logs up front, so it is
	// held to what the segment files have room for before it is believed.
	var room int64
	for _, seg := range man.Segments {
		fi, err := os.Stat(filepath.Join(dir, seg.File))
		if err != nil {
			return nil, fmt.Errorf("store: read segment: %w", err)
		}
		room += fi.Size() / event.EventEncodedSize
	}
	if int64(man.Events) > room {
		return nil, fmt.Errorf("store: manifest says %d events, segment files have room for %d", man.Events, room)
	}
	for _, p := range st.parts {
		p.events = make([]event.Event, 0, man.Events/len(st.parts))
	}
	for _, seg := range man.Segments {
		raw, err := os.ReadFile(filepath.Join(dir, seg.File))
		if err != nil {
			return nil, fmt.Errorf("store: read segment: %w", err)
		}
		count, payload, err := unframe(magicEvents, raw)
		if err != nil {
			return nil, fmt.Errorf("store: %s: %w", seg.File, err)
		}
		if count > uint64(len(payload)) || int(count) != seg.Count {
			return nil, fmt.Errorf("store: %s: manifest says %d events, file says %d", seg.File, seg.Count, count)
		}
		if len(payload) != int(count)*event.EventEncodedSize {
			return nil, fmt.Errorf("store: %s: payload size %d does not match %d records", seg.File, len(payload), count)
		}
		for n := 0; n < int(count); n++ {
			e, err := event.DecodeEvent(payload[n*event.EventEncodedSize:])
			if err != nil {
				return nil, fmt.Errorf("store: %s record %d: %w", seg.File, n, err)
			}
			if err := st.addRaw(e); err != nil {
				return nil, err
			}
		}
	}
	if st.NumEvents() != man.Events {
		return nil, fmt.Errorf("store: manifest says %d events, segments held %d", man.Events, st.NumEvents())
	}
	return st, nil
}
