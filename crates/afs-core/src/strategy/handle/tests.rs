//! The application-side seam's contract, checked once per carrier: the
//! four differ in what moves an operation, never in what the handle makes
//! of it. Each rig is a real carrier against a scripted sentinel end — a
//! 16-byte file served honestly, except that reads at [`OVER`] announce
//! four bytes more than were asked for and reads at [`VANISH`] take the
//! sentinel end away instead of answering.

use std::sync::atomic::AtomicU64;
use std::sync::mpsc;
use std::time::Duration;

use afs_ipc::{Cqe, Framed, MuxHub, PairPort, RingPair};

use super::*;
use crate::ctx::SentinelCtx;
use crate::logic::{SentinelLogic, SentinelResult};
use crate::strategy::batch::RingDriver;
use crate::strategy::dispatch::tests::{instruments, probe_ctx};
use crate::strategy::dll;
use crate::strategy::mux::SharedSentinel;
use crate::strategy::{spawn_sentinel, Instruments};

const FILE: &[u8; 16] = b"0123456789abcdef";
const OVER: u64 = 100;
const VANISH: u64 = 200;

/// The scripted answer to one command; `None` means vanish.
fn script(op: &Op) -> Option<(OpReply, Vec<u8>)> {
    let read = |offset: u64, len: usize| {
        let data = match offset {
            VANISH.. => return None,
            OVER.. => vec![b'!'; len + 4],
            _ => {
                let from = FILE.len().min(offset as usize);
                FILE[from..FILE.len().min(from + len)].to_vec()
            }
        };
        Some((
            OpReply::Read {
                n: data.len() as u32,
            },
            data,
        ))
    };
    match op {
        Op::Read { offset, len } => read(*offset, *len as usize),
        Op::ReadScatter { offset, lens } => read(*offset, lens.iter().sum::<u32>() as usize),
        Op::GetSize => Some((OpReply::Size(FILE.len() as u64), Vec::new())),
        _ => Some((OpReply::Done, Vec::new())),
    }
}

/// The same script as §4.4 sentinel logic, where over-announcing is a
/// routine that claims to have produced more than it was given room for.
struct Scripted;

impl SentinelLogic for Scripted {
    fn read(&mut self, _: &mut SentinelCtx, offset: u64, buf: &mut [u8]) -> SentinelResult<usize> {
        let (_, data) = script(&Op::Read {
            offset,
            len: buf.len() as u32,
        })
        .expect("an inline sentinel has no end to take away");
        let n = buf.len().min(data.len());
        buf[..n].copy_from_slice(&data[..n]);
        Ok(data.len())
    }

    fn write(&mut self, _: &mut SentinelCtx, _: u64, data: &[u8]) -> SentinelResult<usize> {
        Ok(data.len())
    }

    fn len(&mut self, _: &mut SentinelCtx) -> SentinelResult<u64> {
        Ok(FILE.len() as u64)
    }
}

/// Serves a pair port — plain or framed — from the script, as a sentinel
/// thread the handle's close reaps. With `sessions > 1`, vanishing waits
/// until every session has a command on the wire, so one of them is
/// pulling and the rest are waiting on it.
fn serve_pair<C, R>(
    port: PairPort<C, R>,
    sessions: usize,
    open: impl Fn(C) -> (u32, Op) + Send + 'static,
    frame: impl Fn(u32, OpReply) -> R + Send + 'static,
) -> Reaper
where
    C: Send + 'static,
    R: Send + 'static,
{
    Reaper::Thread(spawn_sentinel("scripted", move || {
        while let Ok(cmd) = port.recv_cmd() {
            let (session, op) = open(cmd);
            if let Op::Write { len, .. } = op {
                let mut payload = vec![0; len as usize];
                if len > 0 && port.recv_data_exact(&mut payload).is_err() {
                    return;
                }
                continue;
            }
            let Some((reply, data)) = script(&op) else {
                for _ in 1..sessions {
                    let _ = port.recv_cmd();
                }
                return;
            };
            let sent = port.send_reply(frame(session, reply));
            if sent.is_err() || (!data.is_empty() && port.send_data(&data).is_err()) {
                return;
            }
            if matches!(op, Op::Close) {
                return;
            }
        }
    }))
}

/// One carrier under test: a handle on it, and a sibling session where
/// the carrier shares its sentinel.
struct Rig {
    carrier: &'static str,
    ops: Arc<dyn ActiveOps>,
    sibling: Option<Arc<dyn ActiveOps>>,
    /// Whether the sentinel end is something that can be taken away.
    can_vanish: bool,
}

fn handle(
    instr: &Instruments,
    port: impl AppPort + 'static,
    reaper: Option<Reaper>,
) -> Arc<dyn ActiveOps> {
    instr.handle(port, Sticky::default(), Arc::default(), reaper)
}

fn rigs() -> [Rig; 4] {
    let instr = instruments();
    let model = || instr.model.clone();

    let (pair, port) = PairTransport::<Op, OpReply>::kernel(model());
    let pair_end = serve_pair(port, 1, |op| (0, op), |_, reply| reply);

    let (wire, port) = PairTransport::<Framed<Op>, Framed<OpReply>>::kernel(model());
    let hub = MuxHub::<OpMux>::new(wire, model(), None);
    let hub_end = serve_pair(
        port,
        2,
        |f: Framed<Op>| (f.session, f.body),
        |session, body| Framed { session, body },
    );
    hub.set_reaper(Box::new(move || hub_end.wait()));
    let [hub_a, hub_b] = [(); 2].map(|()| handle(&instr, hub.attach().expect("attach"), None));

    let (ring, port) = RingPair::shared::<Op, OpReply>(model(), 4);
    let driver = RingDriver::new(ring, &instr, Arc::new(AtomicU64::new(0)));
    let ring_end = Reaper::Thread(spawn_sentinel("scripted-ring", move || loop {
        let sqe = match port.poll_sqe() {
            Ok(Some(sqe)) => sqe,
            Ok(None) => {
                std::thread::yield_now();
                continue;
            }
            Err(_) => return,
        };
        if matches!(sqe.cmd, Op::Write { .. }) {
            continue;
        }
        let Some((reply, data)) = script(&sqe.cmd) else {
            return;
        };
        let cqe = Cqe {
            id: sqe.id,
            reply,
            data: Some(data),
        };
        if port.post(cqe).is_err() || matches!(sqe.cmd, Op::Close) {
            return;
        }
    }));

    let inline = dll::open_shared(Box::new(Scripted), probe_ctx(), instr.clone()).expect("open");
    let [inline_a, inline_b] = [(); 2].map(|()| inline.attach().expect("attach"));

    [
        Rig {
            carrier: "pair",
            ops: handle(&instr, pair, Some(pair_end)),
            sibling: None,
            can_vanish: true,
        },
        Rig {
            carrier: "hub",
            ops: hub_a,
            sibling: Some(hub_b),
            can_vanish: true,
        },
        Rig {
            carrier: "ring",
            ops: handle(&instr, driver, Some(ring_end)),
            sibling: None,
            can_vanish: true,
        },
        Rig {
            carrier: "inline",
            ops: inline_a,
            sibling: Some(inline_b),
            can_vanish: false,
        },
    ]
}

impl Rig {
    fn sessions(&self) -> impl Iterator<Item = &Arc<dyn ActiveOps>> {
        std::iter::once(&self.ops).chain(&self.sibling)
    }

    /// Closes every session, which reaps the scripted sentinel end.
    fn finish(self) {
        for session in self.sessions() {
            session.close().expect("close");
        }
    }
}

fn pointer(ops: &Arc<dyn ActiveOps>) -> u64 {
    ops.seek(0, SeekMethod::Current).expect("pointer")
}

fn read(ops: &Arc<dyn ActiveOps>, len: usize) -> Result<Vec<u8>, Win32Error> {
    let mut buf = vec![0u8; len];
    let n = ops.read(&mut buf)?;
    buf.truncate(n);
    Ok(buf)
}

#[test]
fn a_reply_delivers_exactly_what_it_announces() {
    for r in rigs() {
        let c = r.carrier;
        assert_eq!(read(&r.ops, 8).expect(c), b"01234567", "{c}");
        assert_eq!(pointer(&r.ops), 8, "{c}");
        let (mut a, mut b) = ([0u8; 3], [0u8; 5]);
        let n = r.ops.read_scatter(&mut [&mut a[..], &mut b[..]]).expect(c);
        assert_eq!((n, &a, &b), (8, b"89a", b"bcdef"), "{c}");
        assert_eq!(pointer(&r.ops), 16, "{c}");
        assert_eq!(r.ops.size().expect(c), 16, "{c}");
        r.finish();
    }
}

#[test]
fn a_short_reply_at_end_of_file_moves_the_pointer_by_what_arrived() {
    for r in rigs() {
        let c = r.carrier;
        r.ops.seek(12, SeekMethod::Begin).expect(c);
        assert_eq!(read(&r.ops, 8).expect(c), b"cdef", "{c}");
        assert_eq!(pointer(&r.ops), 16, "{c}");
        assert_eq!(read(&r.ops, 8).expect(c), b"", "{c}");
        r.ops.seek(10, SeekMethod::Begin).expect(c);
        let (mut a, mut b) = ([0u8; 4], [0u8; 4]);
        let n = r.ops.read_scatter(&mut [&mut a[..], &mut b[..]]).expect(c);
        assert_eq!((n, &a, &b[..2]), (6, b"abcd", &b"ef"[..]), "{c}");
        assert_eq!(pointer(&r.ops), 16, "{c}");
        r.finish();
    }
}

/// A reply announcing more bytes than the caller has room for fails the
/// operation and leaves the pointer — and the lane stays framed: the next
/// operation, on this handle and on a sibling session, is served.
#[test]
fn over_delivery_fails_the_op_and_nothing_else() {
    type OverRead = fn(&Arc<dyn ActiveOps>) -> Result<usize, Win32Error>;
    let plain: OverRead = |ops| read(ops, 8).map(|bytes| bytes.len());
    let scatter: OverRead = |ops| ops.read_scatter(&mut [&mut [0u8; 8][..]]);
    // Over-reported on a segment that is not the last one.
    let split: OverRead = |ops| ops.read_scatter(&mut [&mut [0u8; 4][..], &mut [0u8; 4][..]]);
    for over_read in [plain, scatter, split] {
        for r in rigs() {
            let c = r.carrier;
            r.ops.seek(OVER as i64, SeekMethod::Begin).expect(c);
            assert_eq!(over_read(&r.ops), Err(Win32Error::BrokenPipe), "{c}");
            assert_eq!(
                pointer(&r.ops),
                OVER,
                "{c}: pointer must not advance past a rejected transfer"
            );
            r.ops.seek(0, SeekMethod::Begin).expect(c);
            for session in r.sessions() {
                assert_eq!(read(session, 4).expect(c), b"0123", "{c}: lane framed");
            }
            r.finish();
        }
    }
}

/// The sentinel end going away under a call is an error, never a hang —
/// for the session whose call it was and for one waiting behind it.
#[test]
fn a_sentinel_end_dropped_mid_call_fails_every_session_waiting_on_it() {
    for r in rigs().into_iter().filter(|r| r.can_vanish) {
        let c = r.carrier;
        let (done, results) = mpsc::channel();
        for session in r.sessions() {
            session.seek(VANISH as i64, SeekMethod::Begin).expect(c);
            let (session, done) = (Arc::clone(session), done.clone());
            std::thread::spawn(move || done.send(read(&session, 8)));
        }
        for _ in r.sessions() {
            let result = results
                .recv_timeout(Duration::from_secs(30))
                .unwrap_or_else(|_| panic!("{c}: a call hung on a dead wire"));
            assert_eq!(result, Err(Win32Error::BrokenPipe), "{c}");
        }
        // The dead wire stays dead, and closing over it still works.
        for session in r.sessions() {
            assert_eq!(read(session, 8), Err(Win32Error::BrokenPipe), "{c}");
        }
        r.finish();
    }
}

#[test]
fn close_is_idempotent() {
    for r in rigs() {
        let c = r.carrier;
        for session in r.sessions() {
            assert_eq!(session.close(), Ok(()), "{c}: close");
            assert_eq!(session.close(), Ok(()), "{c}: close again");
        }
        assert_eq!(r.ops.close(), Ok(()), "{c}: after the sentinel is gone");
        r.finish();
    }
}
