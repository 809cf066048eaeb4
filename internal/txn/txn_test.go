package txn

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"

	"aru/internal/core"
	"aru/internal/crashenum"
	"aru/internal/disk"
	"aru/internal/seg"
)

func newTestManager(t *testing.T) (*Manager, *core.LLD, *disk.Sim) {
	t.Helper()
	layout := seg.Layout{
		BlockSize: 1024, SegBytes: 16384, NumSegs: 128,
		MaxBlocks: 8192, MaxLists: 4096,
	}
	dev := disk.NewMem(layout.DiskBytes())
	d, err := core.Format(dev, core.Params{Layout: layout})
	if err != nil {
		t.Fatal(err)
	}
	return NewManager(d), d, dev
}

// account helpers: one block per account, balance in the first 8 bytes.
//
// writeBalance returns the Write error instead of failing the test:
// under wait-die a Write may return the retryable ErrAborted, which a
// Run closure must hand back to Manager.Run for the retry. Worker
// goroutines use it directly (t.Fatal is only legal on the test's own
// goroutine); putBalance is the single-goroutine shorthand.
func writeBalance(tx *Txn, b core.BlockID, v uint64, bsize int) error {
	buf := make([]byte, bsize)
	binary.LittleEndian.PutUint64(buf, v)
	return tx.Write(b, buf)
}

func putBalance(t *testing.T, tx *Txn, b core.BlockID, v uint64, bsize int) {
	t.Helper()
	if err := writeBalance(tx, b, v, bsize); err != nil {
		t.Fatal(err)
	}
}

func getBalance(tx *Txn, b core.BlockID, bsize int) (uint64, error) {
	buf := make([]byte, bsize)
	if err := tx.Read(b, buf); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf), nil
}

func TestCommitAndRollback(t *testing.T) {
	m, d, _ := newTestManager(t)
	bs := d.BlockSize()

	var acct core.BlockID
	err := m.Run(false, func(tx *Txn) error {
		lst, err := tx.NewList()
		if err != nil {
			return err
		}
		acct, err = tx.NewBlock(lst, core.NilBlock)
		if err != nil {
			return err
		}
		putBalance(t, tx, acct, 100, bs)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// A rolled-back update leaves no trace.
	tx, err := m.Begin()
	if err != nil {
		t.Fatal(err)
	}
	putBalance(t, tx, acct, 999, bs)
	if v, _ := getBalance(tx, acct, bs); v != 999 {
		t.Fatalf("transaction does not read its own write: %d", v)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	tx2, _ := m.Begin()
	v, err := getBalance(tx2, acct, bs)
	if err != nil {
		t.Fatal(err)
	}
	if v != 100 {
		t.Fatalf("rollback leaked: balance %d", v)
	}
	if err := tx2.Commit(false); err != nil {
		t.Fatal(err)
	}

	// Use-after-finish is rejected.
	if err := tx.Write(acct, make([]byte, bs)); !errors.Is(err, ErrDone) {
		t.Fatalf("write on finished txn: %v", err)
	}
}

// TestBankConservation is the serializability smoke test: concurrent
// transfers between accounts must conserve the total.
func TestBankConservation(t *testing.T) {
	m, d, _ := newTestManager(t)
	bs := d.BlockSize()
	const accounts = 6
	const perAccount = 1000

	var ids [accounts]core.BlockID
	err := m.Run(false, func(tx *Txn) error {
		lst, err := tx.NewList()
		if err != nil {
			return err
		}
		for i := range ids {
			b, err := tx.NewBlock(lst, core.NilBlock)
			if err != nil {
				return err
			}
			ids[i] = b
			putBalance(t, tx, b, perAccount, bs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const transfers = 40
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < transfers; i++ {
				from := ids[(w+i)%accounts]
				to := ids[(w+i+1+i%3)%accounts]
				if from == to {
					continue
				}
				err := m.Run(false, func(tx *Txn) error {
					fv, err := getBalance(tx, from, bs)
					if err != nil {
						return err
					}
					tv, err := getBalance(tx, to, bs)
					if err != nil {
						return err
					}
					amount := uint64(1 + (w+i)%7)
					if fv < amount {
						return nil // insufficient funds: no-op
					}
					if err := writeBalance(tx, from, fv-amount, bs); err != nil {
						return err
					}
					return writeBalance(tx, to, tv+amount, bs)
				})
				if err != nil {
					errCh <- fmt.Errorf("worker %d transfer %d: %w", w, i, err)
					return
				}
			}
			errCh <- nil
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}

	var total uint64
	err = m.Run(false, func(tx *Txn) error {
		total = 0
		for _, b := range ids {
			v, err := getBalance(tx, b, bs)
			if err != nil {
				return err
			}
			total += v
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != accounts*perAccount {
		t.Fatalf("money not conserved: %d, want %d", total, accounts*perAccount)
	}
	if err := d.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
}

// TestLostUpdatePrevented: two increments through the transaction layer
// never collapse into one (which raw ARUs would allow — last committer
// wins).
func TestLostUpdatePrevented(t *testing.T) {
	m, d, _ := newTestManager(t)
	bs := d.BlockSize()
	var ctr core.BlockID
	err := m.Run(false, func(tx *Txn) error {
		lst, err := tx.NewList()
		if err != nil {
			return err
		}
		ctr, err = tx.NewBlock(lst, core.NilBlock)
		if err != nil {
			return err
		}
		putBalance(t, tx, ctr, 0, bs)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	const workers = 6
	const increments = 30
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < increments; i++ {
				err := m.Run(false, func(tx *Txn) error {
					v, err := getBalance(tx, ctr, bs)
					if err != nil {
						return err
					}
					return writeBalance(tx, ctr, v+1, bs)
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	var final uint64
	_ = m.Run(false, func(tx *Txn) error {
		var err error
		final, err = getBalance(tx, ctr, bs)
		return err
	})
	if final != workers*increments {
		t.Fatalf("lost updates: counter %d, want %d", final, workers*increments)
	}
}

// TestDurableCommitSurvivesCrash: a durable transaction is recovered; a
// non-durable one committed just before the crash is not (and that is
// the documented contract).
func TestDurableCommitSurvivesCrash(t *testing.T) {
	m, d, dev := newTestManager(t)
	bs := d.BlockSize()
	var acct core.BlockID
	err := m.Run(true, func(tx *Txn) error {
		lst, err := tx.NewList()
		if err != nil {
			return err
		}
		acct, err = tx.NewBlock(lst, core.NilBlock)
		if err != nil {
			return err
		}
		putBalance(t, tx, acct, 777, bs)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Non-durable follow-up.
	if err := m.Run(false, func(tx *Txn) error {
		putBalance(t, tx, acct, 888, bs)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	d2, err := crashenum.Recover(dev, core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, bs)
	if err := d2.Read(0, acct, buf); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(buf); got != 777 {
		t.Fatalf("recovered balance %d, want the durable 777", got)
	}
}

// TestWaitDieMakesProgress forces heavy contention on one block and
// verifies every transaction eventually succeeds via Run's retry.
func TestWaitDieMakesProgress(t *testing.T) {
	m, d, _ := newTestManager(t)
	bs := d.BlockSize()
	var hot core.BlockID
	err := m.Run(false, func(tx *Txn) error {
		lst, err := tx.NewList()
		if err != nil {
			return err
		}
		hot, err = tx.NewBlock(lst, core.NilBlock)
		if err != nil {
			return err
		}
		putBalance(t, tx, hot, 0, bs)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 10; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				if err := m.Run(false, func(tx *Txn) error {
					v, err := getBalance(tx, hot, bs)
					if err != nil {
						return err
					}
					return writeBalance(tx, hot, v+1, bs)
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	var final uint64
	_ = m.Run(false, func(tx *Txn) error {
		var err error
		final, err = getBalance(tx, hot, bs)
		return err
	})
	if final != 150 {
		t.Fatalf("hot counter %d, want 150", final)
	}
}

// TestReadSharing: concurrent readers do not block each other (both
// acquire shared locks inside open transactions simultaneously).
func TestReadSharing(t *testing.T) {
	m, d, _ := newTestManager(t)
	bs := d.BlockSize()
	var b core.BlockID
	err := m.Run(false, func(tx *Txn) error {
		lst, err := tx.NewList()
		if err != nil {
			return err
		}
		b, err = tx.NewBlock(lst, core.NilBlock)
		if err != nil {
			return err
		}
		putBalance(t, tx, b, 5, bs)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t1, _ := m.Begin()
	t2, _ := m.Begin()
	v1, err := getBalance(t1, b, bs)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := getBalance(t2, b, bs)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != 5 || v2 != 5 {
		t.Fatalf("shared reads: %d %d", v1, v2)
	}
	if err := t1.Commit(false); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(false); err != nil {
		t.Fatal(err)
	}
}

var _ = bytes.Equal

// TestTxnListOps covers the structural operations of the transaction
// API.
func TestTxnListOps(t *testing.T) {
	m, d, _ := newTestManager(t)
	var lst core.ListID
	var blocks []core.BlockID
	err := m.Run(false, func(tx *Txn) error {
		var err error
		lst, err = tx.NewList()
		if err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			b, err := tx.NewBlock(lst, core.NilBlock)
			if err != nil {
				return err
			}
			blocks = append(blocks, b)
		}
		got, err := tx.ListBlocks(lst)
		if err != nil {
			return err
		}
		if len(got) != 3 {
			t.Fatalf("ListBlocks inside txn: %v", got)
		}
		return tx.DeleteBlock(blocks[0])
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.ListBlocks(0, lst)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("after txn: %v", got)
	}
	// Delete the whole list in a second transaction.
	if err := m.Run(false, func(tx *Txn) error {
		return tx.DeleteList(lst)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ListBlocks(0, lst); err == nil {
		t.Fatal("list survived DeleteList")
	}
}

// TestRunPropagatesRealErrors: Run must not retry non-conflict errors.
func TestRunPropagatesRealErrors(t *testing.T) {
	m, _, _ := newTestManager(t)
	calls := 0
	sentinel := errors.New("boom")
	err := m.Run(false, func(tx *Txn) error {
		calls++
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if calls != 1 {
		t.Fatalf("non-retryable error retried %d times", calls)
	}
}

// TestLockUpgrade: a transaction that reads then writes the same block
// upgrades its shared lock in place.
func TestLockUpgrade(t *testing.T) {
	m, d, _ := newTestManager(t)
	bs := d.BlockSize()
	var b core.BlockID
	if err := m.Run(false, func(tx *Txn) error {
		lst, err := tx.NewList()
		if err != nil {
			return err
		}
		b, err = tx.NewBlock(lst, core.NilBlock)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(false, func(tx *Txn) error {
		if _, err := getBalance(tx, b, bs); err != nil { // S lock
			return err
		}
		putBalance(t, tx, b, 7, bs) // upgrade to X
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var v uint64
	_ = m.Run(false, func(tx *Txn) error {
		var err error
		v, err = getBalance(tx, b, bs)
		return err
	})
	if v != 7 {
		t.Fatalf("upgrade lost the write: %d", v)
	}
}
