//! Shared-sentinel sessions, for every strategy that carries commands.
//!
//! The paper's §2.2 prescribes one sentinel per open. For N concurrent
//! opens of the *same* active file that costs N sentinel threads, N
//! transports, and N incoherent caches. This module keeps the paper's
//! per-open handle semantics while sharing the machinery: the first open
//! launches the sentinel; later opens *attach* as new sessions on it,
//! each with a private file pointer, private sticky write-behind error,
//! and its own span note.
//!
//! Division of labour:
//!
//! * [`OpMux`] teaches the protocol-agnostic [`afs_ipc::Stager`] and
//!   [`MuxHub`](afs_ipc::MuxHub) the wire shape of [`Op`]/[`OpReply`] —
//!   which commands carry payload, which replies do, which command is the
//!   terminal close, and when two writes are contiguous (those coalesce
//!   into one entry).
//! * A [`SessionHub`] is a sentinel whose opens are sessions: the pair
//!   lane's `MuxHub`, the batched [`RingDriver`] or the §4.4
//!   [`InlineShared`]; each of its sessions is a carrier on it.
//! * [`Joinable`] is the one [`SharedSentinel`] over any of them: what the
//!   open path's registry stores. Each attach admits the new session's
//!   record to the sentinel — the [`dispatch`](super::dispatch) loop, or
//!   the inline core — before the session can send a frame. `None` means
//!   the sentinel already ran its terminal close and a fresh one is
//!   needed.
//!
//! [`RingDriver`]: super::batch::RingDriver
//! [`InlineShared`]: super::dll::InlineShared

use std::sync::Arc;

use afs_ipc::{MuxProtocol, SessionHub};
use afs_telemetry::intern;
use afs_vfs::VPath;

use crate::strategy::dispatch::{Joiners, Session};
use crate::strategy::{ActiveOps, Instruments, Op, OpReply, Sticky};

/// The wire-shape facts [`MuxHub`] needs about the [`Op`]/[`OpReply`]
/// protocol.
pub(crate) struct OpMux;

impl MuxProtocol for OpMux {
    type Cmd = Op;
    type Reply = OpReply;

    fn cmd_payload_len(cmd: &Op) -> usize {
        match cmd {
            Op::Write { len, .. } => *len as usize,
            _ => 0,
        }
    }

    fn reply_payload_len(reply: &OpReply) -> usize {
        match reply {
            OpReply::Read { n } => *n as usize,
            _ => 0,
        }
    }

    fn is_close(cmd: &Op) -> bool {
        matches!(cmd, Op::Close)
    }

    fn close_ack() -> OpReply {
        OpReply::Done
    }

    fn coalesce(acc: &Op, next: &Op) -> Option<Op> {
        match (acc, next) {
            (
                Op::Write {
                    offset: o1,
                    len: l1,
                },
                Op::Write {
                    offset: o2,
                    len: l2,
                },
            ) if o1 + u64::from(*l1) == *o2 => Some(Op::Write {
                offset: *o1,
                len: l1 + l2,
            }),
            _ => None,
        }
    }
}

/// A running sentinel that later opens of the same `(path, spec)` can
/// join as additional sessions.
pub(crate) trait SharedSentinel: Send + Sync {
    /// Attaches a new session, or `None` once the sentinel has terminally
    /// closed (the caller then spawns a fresh one).
    fn attach(&self) -> Option<Arc<dyn ActiveOps>>;
    /// Live session count, for diagnostics (`afsh sessions`).
    fn session_count(&self) -> usize;
}

/// The one [`SharedSentinel`]: a hub, and the door through which the
/// sentinel serving it learns each session's record.
pub(crate) struct Joinable<H> {
    hub: Arc<H>,
    joiners: Joiners,
    /// The per-session span note: `"file=<data-part path>"`, interned
    /// once per sentinel.
    file: &'static str,
    instr: Instruments,
}

impl<H: SessionHub<OpMux>> Joinable<H> {
    pub(crate) fn new(hub: H, joiners: Joiners, path: &VPath, instr: Instruments) -> Arc<Self> {
        let file = intern(&format!("file={}", path.file_path()));
        Arc::new(Joinable {
            hub: Arc::new(hub),
            joiners,
            file,
            instr,
        })
    }
}

impl<H: SessionHub<OpMux>> SharedSentinel for Joinable<H> {
    fn attach(&self) -> Option<Arc<dyn ActiveOps>> {
        let (id, live) = self.hub.attach()?;
        let sticky = Sticky::default();
        // Every sentinel-side span of this session carries the owning
        // session id and file, so slow-op ancestry and trace dumps name
        // which of the clients an op belongs to.
        let side = self.instr.sentinel_side().in_session(id, self.file);
        // Admitted before the session can send a frame.
        self.joiners.admit(
            Session {
                id,
                sticky: Arc::clone(&sticky),
                side,
            },
            live,
        );
        // The hub reaps the sentinel when the terminal close is
        // acknowledged; the handle has nothing to join.
        let port = Arc::clone(&self.hub);
        Some(self.instr.handle(port, id, sticky, None))
    }

    fn session_count(&self) -> usize {
        self.hub.session_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_mux_payload_lens_match_the_protocol() {
        assert_eq!(OpMux::cmd_payload_len(&Op::Write { offset: 0, len: 7 }), 7);
        assert_eq!(OpMux::cmd_payload_len(&Op::Read { offset: 0, len: 7 }), 0);
        assert_eq!(
            OpMux::cmd_payload_len(&Op::Control {
                code: 1,
                payload: vec![1, 2, 3],
            }),
            0,
            "control payloads ride the command itself, not the data lane"
        );
        assert_eq!(OpMux::reply_payload_len(&OpReply::Read { n: 9 }), 9);
        assert_eq!(OpMux::reply_payload_len(&OpReply::Done), 0);
        assert_eq!(
            OpMux::reply_payload_len(&OpReply::Control {
                payload: vec![1, 2],
            }),
            0
        );
        assert!(OpMux::is_close(&Op::Close));
        assert!(!OpMux::is_close(&Op::Flush));
        assert_eq!(OpMux::close_ack(), OpReply::Done);
    }

    #[test]
    fn only_adjacent_writes_coalesce() {
        let merged = OpMux::coalesce(
            &Op::Write { offset: 10, len: 4 },
            &Op::Write { offset: 14, len: 2 },
        );
        assert_eq!(merged, Some(Op::Write { offset: 10, len: 6 }));
        assert_eq!(
            OpMux::coalesce(
                &Op::Write { offset: 10, len: 4 },
                &Op::Write { offset: 15, len: 2 },
            ),
            None,
            "a gap breaks contiguity"
        );
        assert_eq!(
            OpMux::coalesce(&Op::Write { offset: 0, len: 4 }, &Op::GetSize),
            None
        );
    }
}
