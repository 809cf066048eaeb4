package core

import "fmt"

// ReadSemantics selects which of the paper's three Read-visibility
// options (§3.3) the disk system provides. The options differ only in
// what Read returns; writes, commits and recovery are identical.
type ReadSemantics int

const (
	// ReadOwnShadow is the paper's third option and the prototype
	// default: a Read inside an ARU returns that ARU's shadow version;
	// simple Reads return the committed version. Each shadow state is
	// strictly local to its ARU.
	ReadOwnShadow ReadSemantics = iota
	// ReadAnyShadow is the paper's first option: Read always returns
	// the most recent shadow version across all concurrent ARUs (or
	// the committed version if no shadow exists) — every update is
	// visible to all clients right away, including uncommitted ones.
	ReadAnyShadow
	// ReadCommitted is the paper's second option: Read always returns
	// the committed version, even inside an ARU — updates become
	// visible only when their ARU commits.
	ReadCommitted
)

// String implements fmt.Stringer.
func (r ReadSemantics) String() string {
	switch r {
	case ReadOwnShadow:
		return "own-shadow"
	case ReadAnyShadow:
		return "any-shadow"
	case ReadCommitted:
		return "committed"
	default:
		return fmt.Sprintf("read-semantics(%d)", int(r))
	}
}

// CommitDurable ends the ARU and flushes, so the unit is not only
// atomic but durable when the call returns. This is the convenience
// DESIGN.md §5 promises for clients like transaction systems; the
// paper's ARUs themselves deliberately exclude durability (§1).
func (d *LLD) CommitDurable(aru ARUID) error {
	if err := d.EndARU(aru); err != nil {
		return err
	}
	return d.Flush()
}

// MoveBlock removes block b from its current list and inserts it into
// list lst after pred (NilBlock for the head), as one operation of the
// issuing stream. Inside an ARU the move is shadowed and takes effect
// atomically at commit — the natural LD-level primitive for
// reorganization (cf. the Logical Disk paper's transparent
// re-arrangement) and for clients like rename.
func (d *LLD) MoveBlock(aru ARUID, b BlockID, lst ListID, pred BlockID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	defer d.publishLocked()
	if d.closed {
		return ErrClosed
	}
	m, err := d.modeFor(aru)
	if err != nil {
		return err
	}
	rec, ok := d.viewBlock(b, m.viewID())
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchBlock, b)
	}
	if _, ok := d.viewList(lst, m.viewID()); !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchList, lst)
	}
	if pred != NilBlock {
		prec, ok := d.viewBlock(pred, m.viewID())
		if !ok || prec.List != lst || pred == b {
			return fmt.Errorf("%w: pred %d in list %d", ErrNotMember, pred, lst)
		}
	}
	if m.st != nil {
		m.st.linkLog = append(m.st.linkLog,
			listOp{kind: opUnlinkOnly, list: rec.List, block: b},
			listOp{kind: opInsert, list: lst, block: b, pred: pred})
	}
	if rec.List != NilList {
		if err := d.unlinkIn(m, rec.List, b); err != nil {
			return err
		}
	}
	d.stats.MovesExecuted.Add(1)
	return d.insertIn(m, lst, b, pred, true)
}
