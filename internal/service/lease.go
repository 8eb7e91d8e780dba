package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/crp-eda/crp/internal/atomicio"
)

// Lease-based job ownership over the shared store.
//
// Every job directory carries a lease record (lease.json): the owning node,
// a monotonically increasing fencing token, and a deadline the owner pushes
// forward by heartbeat. A node claims a job by acquiring its lease; any
// node may steal a lease whose deadline has passed — expiry is exact: a
// lease is stealable the instant now >= deadline. Acquisition always
// increments the token, so a steal invalidates the previous owner's token
// even if that owner is still alive behind a partition. The token is
// threaded as a fence into every durable write the owner performs
// (checkpoints, outputs, journal appends): a stale-token write fails its
// guard before the publishing rename, so a zombie's work is counted and
// discarded, never visible.
//
// Read-modify-write of the record is serialized by lease.lock, created
// with O_CREAT|O_EXCL. A lock orphaned by a dead process is broken after
// staleLockAge — the record itself stays consistent because its writes are
// atomic renames.

const (
	leaseName     = "lease.json"
	leaseLockName = "lease.lock"
	// staleLockAge bounds how long an orphaned lease.lock (its creator
	// died mid-critical-section) can block the directory. Lock hold times
	// are a few file operations, so anything this old is dead.
	staleLockAge = 2 * time.Second
	// lockWait bounds one operation's total wait for the lock.
	lockWait = 5 * time.Second
)

// ErrLeaseHeld reports an acquisition attempt on a live lease owned by
// another node.
var ErrLeaseHeld = errors.New("service: lease held by another node")

// ErrLeaseLost reports a renew/release with a token that is no longer the
// lease's current token — the lease expired and was stolen.
var ErrLeaseLost = errors.New("service: lease lost (token superseded)")

// ErrFenced reports a durable write refused because the writer's fencing
// token is stale. It is the per-write face of ErrLeaseLost.
var ErrFenced = errors.New("service: write fenced (stale lease token)")

// leaseRecord is the persisted ownership record of one job directory.
type leaseRecord struct {
	// Node is the owner's node id; empty means never leased.
	Node string `json:"node"`
	// Token is the fencing token: strictly monotonic across acquisitions
	// of this job, 1-based.
	Token int64 `json:"token"`
	// Deadline is the expiry instant (unix nanoseconds). A released lease
	// has Deadline 0 (kept Node/Token record the last owner for fencing).
	Deadline int64 `json:"deadline_unix_ns"`
	// Renewed is the last heartbeat instant (unix nanoseconds).
	Renewed int64 `json:"renewed_unix_ns"`
}

// decodeLeaseRecord parses and validates a lease record. It is the
// panic-free decoder FuzzLeaseRecord exercises: arbitrary bytes must yield
// an error, never a panic or a nonsensical record.
func decodeLeaseRecord(data []byte) (leaseRecord, error) {
	var rec leaseRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return leaseRecord{}, fmt.Errorf("service: lease record: %w", err)
	}
	if rec.Token < 0 {
		return leaseRecord{}, fmt.Errorf("service: lease record: negative token %d", rec.Token)
	}
	if rec.Token == 0 && rec.Node != "" {
		return leaseRecord{}, fmt.Errorf("service: lease record: owner %q with zero token", rec.Node)
	}
	if rec.Deadline < 0 || rec.Renewed < 0 {
		return leaseRecord{}, fmt.Errorf("service: lease record: negative timestamp")
	}
	return rec, nil
}

// LeaseHooks are the lease layer's deterministic fault seams, wired from
// faultinject by the chaos suite. Nil fields inject nothing.
type LeaseHooks struct {
	// BeforeWrite runs immediately before every durable lease write with
	// the operation name ("acquire", "renew", "release") — the fsync-stall
	// seam (see faultinject.Plan.StallLeaseWriteAtCall).
	BeforeWrite func(op string)
	// DropRenewal, when it returns true, silently discards a renewal —
	// the heartbeat-partition seam: the caller believes the renewal
	// succeeded while the shared store never sees it
	// (see faultinject.Plan.DropRenewalsFromCall).
	DropRenewal func() bool
}

// leaseManager performs this node's lease operations. The clock is a seam
// so expiry edge cases (exactly-at-deadline steals) are testable without
// sleeping.
type leaseManager struct {
	node  string
	ttl   time.Duration
	now   func() time.Time
	hooks LeaseHooks
}

func newLeaseManager(node string, ttl time.Duration, hooks LeaseHooks) *leaseManager {
	return &leaseManager{node: node, ttl: ttl, now: time.Now, hooks: hooks}
}

// readLease loads a job directory's lease record. A missing file is the
// zero record (never leased), not an error.
func readLease(dir string) (leaseRecord, error) {
	data, err := os.ReadFile(filepath.Join(dir, leaseName))
	if err != nil {
		if os.IsNotExist(err) {
			return leaseRecord{}, nil
		}
		return leaseRecord{}, err
	}
	return decodeLeaseRecord(data)
}

// withLock runs fn holding the directory's lease lock. The lock file is
// created exclusively; a stale lock (older than staleLockAge) is broken.
func (lm *leaseManager) withLock(dir string, fn func() error) error {
	lock := filepath.Join(dir, leaseLockName)
	deadline := time.Now().Add(lockWait)
	for {
		f, err := os.OpenFile(lock, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o666)
		if err == nil {
			fmt.Fprintf(f, "%s %d\n", lm.node, lm.now().UnixNano())
			f.Close()
			defer os.Remove(lock)
			return fn()
		}
		if !os.IsExist(err) {
			return fmt.Errorf("service: lease lock %s: %w", lock, err)
		}
		if fi, serr := os.Stat(lock); serr == nil && time.Since(fi.ModTime()) > staleLockAge {
			os.Remove(lock) // orphaned by a dead process; break it
			continue
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("service: lease lock %s: timed out", lock)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// writeLease durably replaces the record (atomic rename), running the
// fsync-stall seam first.
func (lm *leaseManager) writeLease(dir, op string, rec leaseRecord) error {
	if lm.hooks.BeforeWrite != nil {
		lm.hooks.BeforeWrite(op)
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return atomicio.WriteFileBytes(filepath.Join(dir, leaseName), data)
}

// acquire claims the job for this node: never leased, expired (steal), or
// already ours (re-claim). The token increments on every successful
// acquisition — monotonicity is what makes fencing sound. ok=false with
// a nil error means another node holds a live lease.
func (lm *leaseManager) acquire(dir string) (rec leaseRecord, ok bool, err error) {
	err = lm.withLock(dir, func() error {
		cur, err := readLease(dir)
		if err != nil {
			// An unreadable record is treated as corrupt-and-expired: the
			// atomic writer never tears it, so this is a hand-edited or
			// damaged store. Stealing with a bumped token keeps fencing
			// sound (the token only ever grows).
			cur = leaseRecord{}
		}
		now := lm.now()
		if cur.Node != "" && cur.Node != lm.node && now.UnixNano() < cur.Deadline {
			rec = cur
			return ErrLeaseHeld
		}
		rec = leaseRecord{
			Node:     lm.node,
			Token:    cur.Token + 1,
			Deadline: now.Add(lm.ttl).UnixNano(),
			Renewed:  now.UnixNano(),
		}
		return lm.writeLease(dir, "acquire", rec)
	})
	if errors.Is(err, ErrLeaseHeld) {
		return rec, false, nil
	}
	if err != nil {
		return leaseRecord{}, false, err
	}
	return rec, true, nil
}

// renew pushes the lease deadline forward. ErrLeaseLost means the token was
// superseded — the lease expired and another node stole the job; the caller
// must stop treating the job as its own. A renewal dropped by the partition
// seam reports success without touching the store, exactly like a lost
// network write: the partitioned node learns the truth only from fenced
// writes (or a later renewal that does get through).
func (lm *leaseManager) renew(dir string, token int64) error {
	if lm.hooks.DropRenewal != nil && lm.hooks.DropRenewal() {
		return nil
	}
	return lm.withLock(dir, func() error {
		cur, err := readLease(dir)
		if err != nil {
			return err
		}
		if cur.Node != lm.node || cur.Token != token {
			return fmt.Errorf("%w: held by %s token %d, renewing token %d",
				ErrLeaseLost, cur.Node, cur.Token, token)
		}
		now := lm.now()
		cur.Deadline = now.Add(lm.ttl).UnixNano()
		cur.Renewed = now.UnixNano()
		return lm.writeLease(dir, "renew", cur)
	})
}

// release ends this node's ownership: the deadline is zeroed so any node
// can claim immediately, while Node/Token are kept so fences against the
// released token still resolve deterministically. Releasing a superseded
// token is ErrLeaseLost and leaves the thief's lease untouched.
func (lm *leaseManager) release(dir string, token int64) error {
	return lm.withLock(dir, func() error {
		cur, err := readLease(dir)
		if err != nil {
			return err
		}
		if cur.Node != lm.node || cur.Token != token {
			return fmt.Errorf("%w: held by %s token %d, releasing token %d",
				ErrLeaseLost, cur.Node, cur.Token, token)
		}
		cur.Deadline = 0
		cur.Renewed = lm.now().UnixNano()
		return lm.writeLease(dir, "release", cur)
	})
}

// fence returns the write guard for one claimed activation of this node
// (see staticFence).
func (lm *leaseManager) fence(dir string, token int64) func() error {
	return staticFence(dir, lm.node, token)
}

// staticFence returns the write guard for one claimed activation: nil
// while (node, token) is still the lease's current ownership, ErrFenced
// once it is superseded — or when token is 0, a claim already dropped. The
// guard reads the record without the lock — record replacement is an
// atomic rename, so a read sees either the old or the new record, and both
// sides of that race fence correctly (the token only grows). A child
// worker process builds it from the node id and token its parent passes
// through the environment.
func staticFence(dir, node string, token int64) func() error {
	if node == "" {
		return nil // legacy single-node invocation: no fencing
	}
	return func() error {
		cur, err := readLease(dir)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrFenced, err)
		}
		if cur.Node != node || cur.Token != token {
			return fmt.Errorf("%w: lease now %s token %d, writer holds token %d",
				ErrFenced, cur.Node, cur.Token, token)
		}
		return nil
	}
}
