package core

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"intellog/internal/detect"
	"intellog/internal/extract"
	"intellog/internal/hwgraph"
	"intellog/internal/spell"
)

// modelJSON is the on-disk form of a trained model. Both HW-graphs and
// their instances serialise as JSON (§5: "output as JSON files which can
// be queried by JSON query tools").
type modelJSON struct {
	Version   int                 `json:"version"`
	Config    Config              `json:"config"`
	SpellKeys []*spell.Key        `json:"spellKeys"`
	IntelKeys []*extract.IntelKey `json:"intelKeys"`
	KeyGroups map[int][]string    `json:"keyGroups"`
	Graph     *hwgraph.Graph      `json:"graph"`
}

// modelVersion guards format compatibility.
const modelVersion = 1

// toJSON converts a model to its on-disk form.
func (m *Model) toJSON() modelJSON {
	out := modelJSON{
		Version:   modelVersion,
		Config:    m.cfg,
		SpellKeys: m.Parser.Keys(),
		KeyGroups: m.KeyGroups,
		Graph:     m.Graph,
	}
	for _, ik := range m.Keys {
		out.IntelKeys = append(out.IntelKeys, ik)
	}
	return out
}

// fromJSON rebuilds a model from its on-disk form.
func fromJSON(in *modelJSON) (*Model, error) {
	if in.Version != modelVersion {
		return nil, fmt.Errorf("model version %d, want %d", in.Version, modelVersion)
	}
	if in.Graph == nil {
		return nil, fmt.Errorf("model has no HW-graph")
	}
	m := &Model{
		Parser:    spell.Restore(in.Config.SpellThreshold, in.SpellKeys),
		Keys:      map[int]*extract.IntelKey{},
		Graph:     in.Graph,
		KeyGroups: in.KeyGroups,
		cfg:       in.Config,
		lookup:    spell.NewLookupCache(0),
	}
	for _, ik := range in.IntelKeys {
		m.Keys[ik.ID] = ik
	}
	return m, nil
}

// Save writes the trained model as JSON.
func (m *Model) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(m.toJSON())
}

// Load restores a model written by Save.
func Load(r io.Reader) (*Model, error) {
	var in modelJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("decode model: %w", err)
	}
	return fromJSON(&in)
}

// checkpointJSON is the on-disk form of a streaming checkpoint: the
// trained model plus the online detector's in-flight session state, so a
// restarted process resumes mid-stream from one file.
type checkpointJSON struct {
	Version int                 `json:"version"`
	Model   modelJSON           `json:"model"`
	Stream  *detect.StreamState `json:"stream"`
	// Cursor is an opaque position in the input stream — the CLI stores
	// the count of raw input lines already consumed, so rerunning the
	// same command after a crash fast-forwards past them instead of
	// double-consuming.
	Cursor int64 `json:"cursor,omitempty"`
	// Analytics is an opaque serving-layer payload: the tenant's
	// analytics-engine state (clusters, rollups, session deviation
	// evidence), marshaled by the owner so the core stays decoupled from
	// the analytics package. Absent in checkpoints written before the
	// analytics layer existed — loaders treat nil as "start fresh".
	Analytics json.RawMessage `json:"analytics,omitempty"`
}

// checkpointVersion guards checkpoint format compatibility.
const checkpointVersion = 1

// SaveCheckpointState writes a streaming checkpoint: the model, the
// in-flight state of its stream detector (from StreamDetector.State), an
// input-stream cursor (see checkpointJSON.Cursor; zero means "resume from
// wherever the caller's input begins") and an opaque serving-layer
// analytics payload (see checkpointJSON.Analytics; nil omits it).
func SaveCheckpointState(w io.Writer, m *Model, st *detect.StreamState, cursor int64, analytics []byte) error {
	out := checkpointJSON{
		Version:   checkpointVersion,
		Model:     m.toJSON(),
		Stream:    st,
		Cursor:    cursor,
		Analytics: analytics,
	}
	// Compact, unlike Model.Save: the daemon rewrites checkpoints every
	// few seconds, and indenting them cost a few percent of its CPU.
	// LoadCheckpointState reads both forms.
	return json.NewEncoder(w).Encode(out)
}

// LoadCheckpointState restores a checkpoint written by
// SaveCheckpointState: the model, the stream state to hand to
// detect.RestoreStreamDetector, the stored input cursor, and the
// analytics payload (nil when the checkpoint predates the analytics
// layer).
func LoadCheckpointState(r io.Reader) (*Model, *detect.StreamState, int64, []byte, error) {
	var in checkpointJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, nil, 0, nil, fmt.Errorf("decode checkpoint: %w", err)
	}
	if in.Version != checkpointVersion {
		return nil, nil, 0, nil, fmt.Errorf("checkpoint version %d, want %d", in.Version, checkpointVersion)
	}
	if in.Stream == nil {
		return nil, nil, 0, nil, fmt.Errorf("checkpoint has no stream state")
	}
	m, err := fromJSON(&in.Model)
	if err != nil {
		return nil, nil, 0, nil, err
	}
	return m, in.Stream, in.Cursor, in.Analytics, nil
}

// fileSync flushes a file (or directory) to stable storage; a variable
// so the checkpoint fault-injection test can simulate a dying disk.
var fileSync = func(f *os.File) error { return f.Sync() }

// WriteCheckpointFile writes a SaveCheckpointState checkpoint to path
// atomically and durably: the temp file is fsynced before the rename
// and the parent directory after it, so a power loss at any point
// leaves either the old checkpoint or the complete new one — never a
// torn or unlinked file. A failed write leaves the old checkpoint
// byte-intact and no temp file behind.
func WriteCheckpointFile(path string, m *Model, st *detect.StreamState, cursor int64, analytics []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = SaveCheckpointState(f, m, st, cursor, analytics)
	if err == nil {
		err = fileSync(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-renamed file's directory entry
// survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = fileSync(d)
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
