//! Deterministic record–replay of the nondeterministic envelope.
//!
//! The VM itself is deterministic: given the same program and the same
//! sequence of external stimuli, every run retires the same instruction
//! stream through the same fragment boundaries. What *varies* between
//! runs is the envelope — the budgets passed to [`Vm::run`](crate::Vm::run)
//! (each pause is an observable boundary where an embedder may mutate the
//! cache), external [`notify_code_write`](crate::Vm::notify_code_write) /
//! flush calls, and the fault-injection schedule of the chaos harness. A
//! [`ReplayLog`] records that envelope so any failing run replays exactly
//! from its seed plus log, with no random generator in the loop.
//!
//! Events are **count-anchored**: a [`ReplayEvent::Run`] records the
//! *requested* budget, and `Vm::run` deterministically stops at the first
//! fragment boundary at or past it, so replaying the same budget sequence
//! reproduces the same boundary sequence. Cache-directed events address
//! fragments by entry V-address (stable across retranslation), not by
//! cache slot id.
//!
//! A [`Sabotage`] is different in kind: it is a *standing* rule modelling
//! a translator bug ("whenever the fragment at `vstart` is installed,
//! corrupt this immediate"), so a miscompile stays reproducible even
//! after a snapshot restore rebuilds the translation cache from cold.

use crate::error::SnapshotError;
use crate::wire::{self, Cursor};

/// Magic number of the replay-log wire format (`"ILPR"`).
pub const REPLAY_MAGIC: u32 = 0x5250_4C49;

/// Current replay-log format version. Version 7 carries inputs only: the
/// region promote/drop events of versions 4–6 (wire tags 8 and 9) are VM
/// outputs and left the log (see [`Vm::region_events`](crate::Vm::region_events)).
/// Logs written by versions 1–6 are refused with
/// [`SnapshotError::BadVersion`], as are future versions.
pub const REPLAY_VERSION: u32 = 7;

/// One externally-applied stimulus, in application order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReplayEvent {
    /// `Vm::run` was invoked with this budget; the VM paused at the first
    /// fragment boundary at or past it and the events that follow (up to
    /// the next `Run`) were applied at that pause.
    Run {
        /// The requested V-instruction budget.
        budget: u64,
    },
    /// A direct link out of the fragment entered at `fragment_vstart` was
    /// severed (`links[slot] = None`).
    LinkClear {
        /// Entry V-address of the corrupted fragment.
        fragment_vstart: u64,
        /// Instruction slot of the link.
        slot: u32,
    },
    /// A direct link was misdirected to a fragment id that never existed.
    LinkPoison {
        /// Entry V-address of the corrupted fragment.
        fragment_vstart: u64,
        /// Instruction slot of the link.
        slot: u32,
    },
    /// A resolved branch/push target was retargeted off any fragment
    /// entry.
    TargetPoison {
        /// Entry V-address of the corrupted fragment.
        fragment_vstart: u64,
        /// Instruction slot of the transfer.
        slot: u32,
    },
    /// The fragment's entry `SetVpcBase` was made to name the wrong
    /// V-address.
    VpcCorrupt {
        /// Entry V-address of the corrupted fragment.
        fragment_vstart: u64,
    },
    /// The cache epoch was bumped without dropping fragments (stale
    /// dual-RAS links fall back to dispatch).
    EpochFlip,
    /// An external write into guest memory was reported via
    /// `notify_code_write`.
    CodeWrite {
        /// Start of the written range.
        addr: u64,
        /// Length of the written range.
        len: u64,
    },
    /// The C01–C07 installed-fragment audit ran and healed every flagged
    /// fragment by precise invalidation.
    AuditHeal,
}

/// A standing translator-miscompile rule: whenever a fragment with entry
/// `vstart` is (re)installed, XOR `imm_xor` into the first immediate
/// operand at or after instruction `slot` (wrapping). Modelling the bug
/// as a rule rather than a one-shot edit keeps it active across snapshot
/// restores and cache flushes, which rebuild fragments from cold.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Sabotage {
    /// Entry V-address of the fragment to corrupt.
    pub vstart: u64,
    /// Preferred instruction slot (the applier scans forward from here).
    pub slot: u32,
    /// Bits to XOR into the immediate.
    pub imm_xor: u16,
}

/// A recorded nondeterministic envelope: seed provenance, standing
/// sabotage rules, and the event schedule.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ReplayLog {
    /// Seed of the generator that produced the schedule (provenance only;
    /// replay never consults it).
    pub seed: u64,
    /// Standing miscompile rules, re-applied on every matching install.
    pub sabotage: Vec<Sabotage>,
    /// The stimulus schedule, in application order.
    pub events: Vec<ReplayEvent>,
}

impl ReplayLog {
    /// Serializes into the enveloped wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut p = Vec::new();
        wire::put_u64(&mut p, self.seed);
        wire::put_u32(&mut p, self.sabotage.len() as u32);
        for s in &self.sabotage {
            wire::put_u64(&mut p, s.vstart);
            wire::put_u32(&mut p, s.slot);
            wire::put_u32(&mut p, s.imm_xor as u32);
        }
        wire::put_u32(&mut p, self.events.len() as u32);
        for ev in &self.events {
            put_event(&mut p, ev);
        }
        wire::seal(REPLAY_MAGIC, REPLAY_VERSION, &p)
    }

    /// Deserializes an artifact written by [`to_bytes`](ReplayLog::to_bytes).
    pub fn from_bytes(bytes: &[u8]) -> Result<ReplayLog, SnapshotError> {
        let payload = wire::open(REPLAY_MAGIC, REPLAY_VERSION, bytes)?;
        let mut c = Cursor::new(payload);
        let mut log = ReplayLog {
            seed: c.take_u64()?,
            ..ReplayLog::default()
        };
        let n = c.take_u32()? as usize;
        for _ in 0..n {
            let vstart = c.take_u64()?;
            let slot = c.take_u32()?;
            let imm_xor = c.take_u32()? as u16;
            log.sabotage.push(Sabotage {
                vstart,
                slot,
                imm_xor,
            });
        }
        let n = c.take_u32()? as usize;
        for _ in 0..n {
            log.events.push(take_event(&mut c)?);
        }
        c.finish()?;
        Ok(log)
    }

    /// Drops events already reflected in a snapshot taken at `v_insts`
    /// retired instructions, keeping the standing sabotage rules — the
    /// minimization step when building a `.repro` bundle. Pre-entry
    /// cache-directed events would be no-ops against the restored VM's
    /// cold cache anyway; dropping them keeps the bundle small and the
    /// replay obviously aligned.
    pub fn trimmed_to(&self, v_insts: u64) -> ReplayLog {
        let start = self
            .events
            .iter()
            .position(|ev| matches!(*ev, ReplayEvent::Run { budget } if budget > v_insts))
            .unwrap_or(self.events.len());
        ReplayLog {
            seed: self.seed,
            sabotage: self.sabotage.clone(),
            events: self.events[start..].to_vec(),
        }
    }
}

fn put_event(p: &mut Vec<u8>, ev: &ReplayEvent) {
    match *ev {
        ReplayEvent::Run { budget } => {
            wire::put_u8(p, 0);
            wire::put_u64(p, budget);
        }
        ReplayEvent::LinkClear {
            fragment_vstart,
            slot,
        } => {
            wire::put_u8(p, 1);
            wire::put_u64(p, fragment_vstart);
            wire::put_u32(p, slot);
        }
        ReplayEvent::LinkPoison {
            fragment_vstart,
            slot,
        } => {
            wire::put_u8(p, 2);
            wire::put_u64(p, fragment_vstart);
            wire::put_u32(p, slot);
        }
        ReplayEvent::TargetPoison {
            fragment_vstart,
            slot,
        } => {
            wire::put_u8(p, 3);
            wire::put_u64(p, fragment_vstart);
            wire::put_u32(p, slot);
        }
        ReplayEvent::VpcCorrupt { fragment_vstart } => {
            wire::put_u8(p, 4);
            wire::put_u64(p, fragment_vstart);
        }
        ReplayEvent::EpochFlip => wire::put_u8(p, 5),
        ReplayEvent::CodeWrite { addr, len } => {
            wire::put_u8(p, 6);
            wire::put_u64(p, addr);
            wire::put_u64(p, len);
        }
        ReplayEvent::AuditHeal => wire::put_u8(p, 7),
    }
}

fn take_event(c: &mut Cursor<'_>) -> Result<ReplayEvent, SnapshotError> {
    Ok(match c.take_u8()? {
        0 => ReplayEvent::Run {
            budget: c.take_u64()?,
        },
        1 => ReplayEvent::LinkClear {
            fragment_vstart: c.take_u64()?,
            slot: c.take_u32()?,
        },
        2 => ReplayEvent::LinkPoison {
            fragment_vstart: c.take_u64()?,
            slot: c.take_u32()?,
        },
        3 => ReplayEvent::TargetPoison {
            fragment_vstart: c.take_u64()?,
            slot: c.take_u32()?,
        },
        4 => ReplayEvent::VpcCorrupt {
            fragment_vstart: c.take_u64()?,
        },
        5 => ReplayEvent::EpochFlip,
        6 => ReplayEvent::CodeWrite {
            addr: c.take_u64()?,
            len: c.take_u64()?,
        },
        7 => ReplayEvent::AuditHeal,
        // An unknown tag means the artifact is newer than this build —
        // report it as a version problem, not corruption.
        tag => {
            return Err(SnapshotError::BadVersion {
                version: tag as u32,
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ReplayLog {
        ReplayLog {
            seed: 0xC0FFEE,
            sabotage: vec![Sabotage {
                vstart: 0x1_0040,
                slot: 3,
                imm_xor: 5,
            }],
            events: vec![
                ReplayEvent::Run { budget: 100 },
                ReplayEvent::LinkClear {
                    fragment_vstart: 0x1_0040,
                    slot: 7,
                },
                ReplayEvent::AuditHeal,
                ReplayEvent::Run { budget: 200 },
                ReplayEvent::EpochFlip,
                ReplayEvent::CodeWrite {
                    addr: 0x1_0000,
                    len: 8,
                },
                ReplayEvent::AuditHeal,
                ReplayEvent::Run { budget: 4_000 },
            ],
        }
    }

    #[test]
    fn wire_roundtrip_is_identity() {
        let log = sample();
        let back = ReplayLog::from_bytes(&log.to_bytes()).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn corruption_is_detected() {
        let mut bytes = sample().to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        assert!(matches!(
            ReplayLog::from_bytes(&bytes),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn trim_drops_pre_entry_events_keeps_sabotage() {
        let log = sample();
        let t = log.trimmed_to(150);
        assert_eq!(t.sabotage, log.sabotage);
        assert_eq!(t.events.first(), Some(&ReplayEvent::Run { budget: 200 }));
        assert_eq!(t.events.len(), 5);
        // Trimming past every anchor leaves only the rules.
        assert!(log.trimmed_to(10_000).events.is_empty());
    }

    #[test]
    fn older_versions_are_refused() {
        let current = sample().to_bytes();
        let payload = wire::open(REPLAY_MAGIC, REPLAY_VERSION, &current).unwrap();
        for version in 1..REPLAY_VERSION {
            let old = wire::seal(REPLAY_MAGIC, version, payload);
            assert_eq!(
                ReplayLog::from_bytes(&old),
                Err(SnapshotError::BadVersion { version })
            );
        }
    }

    #[test]
    fn trailing_bytes_are_refused() {
        let current = sample().to_bytes();
        let payload = wire::open(REPLAY_MAGIC, REPLAY_VERSION, &current).unwrap();
        let mut longer = payload.to_vec();
        longer.push(0);
        let resealed = wire::seal(REPLAY_MAGIC, REPLAY_VERSION, &longer);
        assert_eq!(
            ReplayLog::from_bytes(&resealed),
            Err(SnapshotError::TrailingBytes { extra: 1 })
        );
    }
}
