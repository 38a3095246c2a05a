package tenant

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/statefile"
)

// usageFileVersion tags the on-disk schema; bump it when Usage changes
// incompatibly and old files silently degrade to empty usage.
const usageFileVersion = 1

// usageFile is the persisted form. Unlike the tuner cache there is no
// host/GOMAXPROCS provenance: usage describes tenants, not machines,
// so a usage file stays valid when the fleet moves hosts.
type usageFile struct {
	Version int              `json:"version"`
	Tenants map[string]Usage `json:"tenants"`
}

// readUsageFile parses path. ok is false — and the usage empty — for
// any defect: missing file, unreadable file, corrupt JSON, or a
// version this build does not speak. A broken usage file must never
// stop a server from booting.
func readUsageFile(path string) (usageFile, bool) {
	b, _ := os.ReadFile(path)
	return decodeUsageFile(b)
}

// decodeUsageFile is readUsageFile's validity check on contents
// already read.
func decodeUsageFile(b []byte) (usageFile, bool) {
	var f usageFile
	if json.Unmarshal(b, &f) != nil || f.Version != usageFileVersion || f.Tenants == nil {
		return usageFile{}, false
	}
	return f, true
}

// restore seeds the live counters from the usage file, so cumulative
// usage is monotone across restarts. Persisted tenants unknown to the
// config get runtime slots (weight 1, no limits): their history must
// survive the next Save even if they never reappear.
func (m *Meter) restore() {
	f, ok := readUsageFile(m.file)
	if !ok {
		return
	}
	m.mu.Lock()
	for id, base := range f.Tenants {
		if ValidateID(id) != nil {
			continue // never let a corrupt-but-parseable file smuggle in a bad ID
		}
		u := m.tenants[id]
		if u == nil {
			u = &usage{spec: Spec{Weight: 1}}
			m.tenants[id] = u
		}
		u.requests.Store(base.Requests)
		u.images.Store(base.Images)
		u.shed.Store(base.Shed)
		u.quotaRejected.Store(base.QuotaRejected)
		u.modelMicros.Store(int64(base.ModelSeconds * 1e6))
	}
	m.mu.Unlock()
}

// Save persists current usage if anything changed since the last save,
// and reports whether a write happened. The write goes through
// statefile.Update: under its directory lock it re-reads the file and
// merges — tenants this meter knows win (our counters already include
// the restored baseline), tenants only on disk are kept — so meters
// sharing a usage file never lose each other's tenants. A failed save
// leaves the meter dirty, so the next one retries.
func (m *Meter) Save() (bool, error) {
	if m.file == "" || !m.dirty.Swap(false) {
		return false, nil
	}
	err := statefile.Update(m.file, func(current []byte) ([]byte, error) {
		merged, ok := decodeUsageFile(current)
		if !ok {
			merged = usageFile{Version: usageFileVersion, Tenants: make(map[string]Usage)}
		}
		m.mu.RLock()
		for id, u := range m.tenants {
			s := u.snap()
			s.Weight = 0 // weight is config, not usage; don't persist it
			if s != (Usage{}) {
				merged.Tenants[id] = s
			}
		}
		m.mu.RUnlock()
		b, err := json.MarshalIndent(merged, "", "  ")
		return append(b, '\n'), err
	})
	if err != nil {
		m.dirty.Store(true)
		return false, fmt.Errorf("tenant: saving usage file: %w", err)
	}
	return true, nil
}

// saveLoop is the background autosaver: one Save per interval while
// traffic keeps the meter dirty, and a final Save at Close.
func (m *Meter) saveLoop(interval time.Duration) {
	defer m.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			m.Save() // best effort; the next tick retries
		case <-m.stop:
			return
		}
	}
}

// Close stops the autosaver and writes a final snapshot. Safe to call
// more than once; only the first call saves (and reports any error).
func (m *Meter) Close() error {
	var err error
	m.once.Do(func() {
		close(m.stop)
		m.wg.Wait()
		_, err = m.Save()
	})
	return err
}
