package detect

import (
	"repro/internal/clock"
	"repro/internal/memmodel"
	"repro/internal/shadow"
)

// cellAccess is the bounded-shadow access rule (Config.Cells): instead of
// exact FastTrack word state the detector keeps the last N access records
// per granule with random replacement, exactly stock TSan's memory-bounding
// scheme (§5). The access is checked against every surviving cell, then
// recorded, possibly evicting a random cell. The happens-before half is the
// detector's own, so races can only be missed once cells are evicted;
// TestShadowEvictionUnsoundness demonstrates it, which is why the paper
// configured TSan with "enough shadow cells to be sound".
func (d *Detector) cellAccess(c *clock.VC, tid clock.TID, addr memmodel.Addr, isWrite bool, site shadow.SiteID) {
	d.Checks++
	for _, cell := range d.cells.Cells(addr) {
		if cell.E.TID() == tid {
			continue
		}
		if !cell.Write && !isWrite {
			continue
		}
		if !c.LeqEpoch(cell.E) {
			d.report(Race{Addr: addr, PrevSite: cell.Site, CurSite: site,
				PrevWrite: cell.Write, CurWrite: isWrite, PrevTID: cell.E.TID(), CurTID: tid})
		}
	}
	if d.cells.Add(addr, shadow.Cell{E: c.Epoch(tid), Site: site, Write: isWrite}) {
		d.evictions++
	}
}

// Evictions returns how many cells the bounded shadow replaced; 0 with
// exact shadow state.
func (d *Detector) Evictions() uint64 { return d.evictions }

// CellStats exposes the bounded store's page-allocation counter; zero with
// exact shadow state.
func (d *Detector) CellStats() shadow.CellStats {
	if d.cells == nil {
		return shadow.CellStats{}
	}
	return d.cells.Stats()
}
