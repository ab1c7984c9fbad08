package qprof

import "sort"

// Shard heatmap: per-(shard, epoch) access/row/busy accounting plus each
// shard's hottest objects by rows walked. Cell and hot-object bookkeeping is
// deterministic — identical query sequences produce identical accesses and
// rows regardless of GOMAXPROCS or timing — while busy nanos are real CPU
// and vary run to run.

const (
	heatMaxCells = 16384 // (shard, epoch) cells retained; oldest epochs pruned
	hotCap       = 4096  // per-shard object stats before pruning
	hotKeep      = 2048  // survivors of a prune, by (rows desc, obj asc)
	hotTopK      = 8     // hottest objects reported per shard
)

type heatKey struct {
	shard int
	epoch int64
}

type heatCell struct {
	accesses int64
	rows     int64
	busyNs   int64
}

type hotStat struct {
	rows     int64
	accesses int64
}

type heatmap struct {
	cells map[heatKey]*heatCell
	hot   []map[int64]*hotStat // indexed by shard; grown on demand
}

// cell returns the cell of key k, making room for it and adding it if it is
// not there.
func (h *heatmap) cell(k heatKey) *heatCell {
	if h.cells == nil {
		h.cells = make(map[heatKey]*heatCell)
	}
	c := h.cells[k]
	if c == nil {
		if len(h.cells) >= heatMaxCells {
			h.pruneCells()
		}
		c = &heatCell{}
		h.cells[k] = c
	}
	return c
}

// hotStat returns shard's stats of obj, likewise.
func (h *heatmap) hotStat(shard int, obj int64) *hotStat {
	for len(h.hot) <= shard {
		h.hot = append(h.hot, nil)
	}
	m := h.hot[shard]
	if m == nil {
		m = make(map[int64]*hotStat)
		h.hot[shard] = m
	}
	st := m[obj]
	if st == nil {
		if len(m) >= hotCap {
			h.pruneHot(shard)
			m = h.hot[shard]
		}
		st = &hotStat{}
		m[obj] = st
	}
	return st
}

// pruneCells drops the oldest-epoch cells to make room, keeping the map
// bounded for long-running daemons. Deterministic: epoch order is total.
func (h *heatmap) pruneCells() {
	keys := make([]heatKey, 0, len(h.cells))
	for k := range h.cells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].epoch != keys[j].epoch {
			return keys[i].epoch < keys[j].epoch
		}
		return keys[i].shard < keys[j].shard
	})
	for _, k := range keys[:len(keys)/2] {
		delete(h.cells, k)
	}
}

// pruneHot keeps a shard's top hotKeep objects by (rows desc, obj asc).
func (h *heatmap) pruneHot(shard int) {
	m, kept := h.hot[shard], make(map[int64]*hotStat, hotKeep)
	for _, o := range h.ranked(shard, hotKeep) {
		kept[o.Obj] = m[o.Obj]
	}
	h.hot[shard] = kept
}

// HotObject is one of a shard's hottest objects by rows walked.
type HotObject struct {
	Obj      int64 `json:"obj"`
	Rows     int64 `json:"rows"`
	Accesses int64 `json:"accesses"`
}

// HeatCell is one (shard, epoch) cell of the heatmap snapshot.
type HeatCell struct {
	Shard    int   `json:"shard"`
	Epoch    int64 `json:"epoch"`
	Accesses int64 `json:"accesses"`
	Rows     int64 `json:"rows"`
	BusyNs   int64 `json:"busy_ns"`
}

// ShardHeat is a shard's aggregate heat across all epochs.
type ShardHeat struct {
	Shard    int         `json:"shard"`
	Accesses int64       `json:"accesses"`
	Rows     int64       `json:"rows"`
	BusyNs   int64       `json:"busy_ns"`
	Hottest  []HotObject `json:"hottest,omitempty"`
}

// snapshot renders the heatmap in deterministic order: cells sorted by
// (shard, epoch), shard aggregates by shard, hottest objects by
// (rows desc, obj asc) capped at hotTopK.
func (h *heatmap) snapshot() (cells []HeatCell, shards []ShardHeat) {
	for k, c := range h.cells {
		cells = append(cells, HeatCell{Shard: k.shard, Epoch: k.epoch, Accesses: c.accesses, Rows: c.rows, BusyNs: c.busyNs})
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Shard != cells[j].Shard {
			return cells[i].Shard < cells[j].Shard
		}
		return cells[i].Epoch < cells[j].Epoch
	})
	for _, c := range cells {
		if n := len(shards); n == 0 || shards[n-1].Shard != c.Shard {
			shards = append(shards, ShardHeat{Shard: c.Shard, Hottest: h.ranked(c.Shard, hotTopK)})
		}
		sa := &shards[len(shards)-1]
		sa.Accesses += c.Accesses
		sa.Rows += c.Rows
		sa.BusyNs += c.BusyNs
	}
	return cells, shards
}

// ranked returns up to k of shard's objects, hottest first: by rows, then ID.
func (h *heatmap) ranked(shard, k int) []HotObject {
	if shard >= len(h.hot) || h.hot[shard] == nil {
		return nil
	}
	m := h.hot[shard]
	out := make([]HotObject, 0, len(m))
	for obj, st := range m {
		out = append(out, HotObject{Obj: obj, Rows: st.rows, Accesses: st.accesses})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rows != out[j].Rows {
			return out[i].Rows > out[j].Rows
		}
		return out[i].Obj < out[j].Obj
	})
	return out[:min(k, len(out))]
}
