//! Shared-sentinel session multiplexing for the wire strategies.
//!
//! The paper's §2.2 prescribes one sentinel per open. For N concurrent
//! opens of the *same* active file that costs N sentinel threads, N
//! transports, and N incoherent caches. This module keeps the paper's
//! per-open handle semantics while sharing the machinery: the first open
//! launches the sentinel; later opens *attach* as new sessions on the same
//! [`MuxHub`], each with a private file pointer, private sticky
//! write-behind error, and private telemetry scope.
//!
//! Division of labour:
//!
//! * [`OpMux`] teaches the protocol-agnostic hub the wire shape of
//!   [`Op`]/[`OpReply`] — which commands carry payload, which replies do,
//!   which command is the terminal close, and when two writes are
//!   contiguous (the hub coalesces those into one crossing).
//! * The sentinel side is the one [`dispatch`](super::dispatch) loop over
//!   the framed pair port; each attach admits the new session's record to
//!   it before the session can send a frame.
//! * [`SharedSentinel`] is what the open path's registry stores: later
//!   opens call [`SharedSentinel::attach`] to join; `None` means the
//!   sentinel already ran its terminal close and a fresh one is needed.

use std::sync::Arc;

use afs_ipc::{MuxHub, MuxProtocol};
use afs_telemetry::{intern, SpanScope};

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

/// The application side of a joinable §4.2/§4.3 sentinel: one transport,
/// many sessions multiplexed over it.
pub(crate) struct MuxShared {
    pub(crate) hub: Arc<MuxHub<OpMux>>,
    pub(crate) joiners: Joiners,
    /// Interned data-part path, for the per-session span note.
    pub(crate) file: &'static str,
    pub(crate) instr: Instruments,
}

impl SharedSentinel for MuxShared {
    fn attach(&self) -> Option<Arc<dyn ActiveOps>> {
        let session = self.hub.attach()?;
        let id = session.session_id();
        let sticky = Sticky::default();
        let scope = Arc::new(SpanScope::default());
        // Every sentinel-side span of this session carries the owning
        // session id and file, so slow-op ancestry and trace dumps name
        // which of the multiplexed clients an op belongs to.
        let note = intern(&format!("session={id} file={}", self.file));
        self.joiners.admit(
            Session {
                id,
                sticky: Arc::clone(&sticky),
                side: self.instr.sentinel_side(Arc::clone(&scope)).with_note(note),
            },
            self.hub.live_sessions(),
        );
        // The hub reaps the sentinel when the terminal close is
        // acknowledged; the handle has nothing to join.
        Some(self.instr.handle(session, sticky, scope, None))
    }

    fn session_count(&self) -> usize {
        self.hub.live_sessions().len()
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
