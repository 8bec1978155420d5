//! Model-based property test of streams: the VFS against a map of files,
//! each a `BTreeMap<String, Vec<u8>>` of streams keyed by name, with the
//! default stream under the empty name.
//!
//! Random calls mix the default stream with three named ones. Every call's
//! result is checked against the model (the error kind included), and
//! after every step each file's streams, lengths and `stat` — `len`,
//! `total_len` and the `streams` list, the default stream first — must
//! agree. The default stream can never be deleted.
//!
//! The files live in one directory that moves away and back, and a pin per
//! file is held across every step: a pinned read, write, append, length
//! change or length must answer what its path answers, whatever was
//! deleted, recreated or moved since the pin was taken — a pin a rename or
//! delete ended falls back to the path walk.

use std::collections::BTreeMap;

use afs_vfs::{Metadata, NodeKind, Pin, VPath, Vfs, VfsError};
use proptest::prelude::*;

/// The default stream, then three named ones.
const STREAMS: [&str; 4] = ["", "active", "meta", "z"];

/// Where the files live, and where [`Op::MoveDir`] takes them.
const DIR: &str = "/d";
const AWAY: &str = "/e";

/// The files by name, each a map of its streams; and whether their
/// directory is away, so that no path of theirs resolves.
#[derive(Default)]
struct Model {
    files: BTreeMap<String, BTreeMap<String, Vec<u8>>>,
    away: bool,
}

#[derive(Debug, Clone)]
enum Op {
    Create(u8),
    Write(u8, u8, u16, Vec<u8>),
    Append(u8, u8, Vec<u8>),
    Replace(u8, u8, Vec<u8>),
    SetLen(u8, u8, u16),
    DeleteStream(u8, u8),
    Copy(u8, u8),
    Rename(u8, u8),
    Stat(u8),
    Delete(u8),
    /// Renames the directory away, or back.
    MoveDir,
    /// Pins the file, to be held until it is pinned again.
    Pin(u8),
    PinnedWrite(u8, u8, u16, Vec<u8>),
    PinnedAppend(u8, u8, Vec<u8>),
    PinnedSetLen(u8, u8, u16),
    PinnedRead(u8, u8),
    PinnedLen(u8, u8),
}

fn file(i: u8) -> String {
    format!("f{}", i % 4)
}

fn stream(s: u8) -> &'static str {
    STREAMS[s as usize % STREAMS.len()]
}

fn vpath(i: u8, s: u8) -> VPath {
    VPath::parse(&format!("{DIR}/{}", file(i)))
        .expect("path")
        .with_stream(stream(s))
}

/// Up to four bytes and how many there are, as one number.
fn packed(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(bytes.len() as u64, |word, &b| word << 8 | u64::from(b))
}

fn bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..24)
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<u8>().prop_map(Op::Create),
        (any::<u8>(), any::<u8>(), 0u16..64, bytes())
            .prop_map(|(f, s, o, d)| Op::Write(f, s, o, d)),
        (any::<u8>(), any::<u8>(), bytes()).prop_map(|(f, s, d)| Op::Append(f, s, d)),
        (any::<u8>(), any::<u8>(), bytes()).prop_map(|(f, s, d)| Op::Replace(f, s, d)),
        (any::<u8>(), any::<u8>(), 0u16..64).prop_map(|(f, s, l)| Op::SetLen(f, s, l)),
        (any::<u8>(), any::<u8>()).prop_map(|(f, s)| Op::DeleteStream(f, s)),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::Copy(a, b)),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::Rename(a, b)),
        any::<u8>().prop_map(Op::Stat),
        any::<u8>().prop_map(Op::Delete),
        Just(Op::MoveDir),
        any::<u8>().prop_map(Op::Pin),
        (any::<u8>(), any::<u8>(), 0u16..64, bytes())
            .prop_map(|(f, s, o, d)| Op::PinnedWrite(f, s, o, d)),
        (any::<u8>(), any::<u8>(), bytes()).prop_map(|(f, s, d)| Op::PinnedAppend(f, s, d)),
        (any::<u8>(), any::<u8>(), 0u16..64).prop_map(|(f, s, l)| Op::PinnedSetLen(f, s, l)),
        (any::<u8>(), any::<u8>()).prop_map(|(f, s)| Op::PinnedRead(f, s)),
        (any::<u8>(), any::<u8>()).prop_map(|(f, s)| Op::PinnedLen(f, s)),
    ]
}

/// An error's kind, without the path it names.
fn kind(e: &VfsError) -> &'static str {
    match e {
        VfsError::NotFound(_) => "NotFound",
        VfsError::AlreadyExists(_) => "AlreadyExists",
        VfsError::InvalidPath(_) => "InvalidPath",
        VfsError::StreamNotFound(_) => "StreamNotFound",
        other => panic!("unexpected error {other:?}"),
    }
}

fn kinded<T>(r: Result<T, VfsError>) -> Result<T, &'static str> {
    r.map_err(|e| kind(&e))
}

/// What `stat` must report for a model file.
fn expected_stat(streams: &BTreeMap<String, Vec<u8>>) -> (u64, u64, Vec<String>) {
    let len = streams[""].len() as u64;
    let total = streams.values().map(|s| s.len() as u64).sum();
    (len, total, streams.keys().cloned().collect())
}

fn reported(meta: &Metadata) -> (u64, u64, Vec<String>) {
    (meta.len, meta.total_len, meta.streams.clone())
}

/// Applies `op` to the model, returning the result the VFS must give.
fn step(model: &mut Model, op: &Op) -> Result<u64, &'static str> {
    if let Op::MoveDir = op {
        model.away = !model.away;
        return Ok(0);
    }
    if model.away {
        // Nothing resolves, but the default stream's name is refused first.
        return match op {
            Op::DeleteStream(_, s) if stream(*s).is_empty() => Err("InvalidPath"),
            _ => Err("NotFound"),
        };
    }
    let model = &mut model.files;
    match op {
        Op::Create(i) => {
            if model.contains_key(&file(*i)) {
                return Err("AlreadyExists");
            }
            model.insert(file(*i), BTreeMap::from([(String::new(), Vec::new())]));
            Ok(0)
        }
        Op::Write(i, s, offset, data) | Op::PinnedWrite(i, s, offset, data) => {
            let f = model.get_mut(&file(*i)).ok_or("NotFound")?;
            let st = f.entry(stream(*s).to_owned()).or_default();
            let (at, end) = (*offset as usize, *offset as usize + data.len());
            if st.len() < end {
                st.resize(end, 0);
            }
            st[at..end].copy_from_slice(data);
            Ok(data.len() as u64)
        }
        Op::Append(i, s, data) | Op::PinnedAppend(i, s, data) => {
            let f = model.get_mut(&file(*i)).ok_or("NotFound")?;
            let st = f.entry(stream(*s).to_owned()).or_default();
            let at = st.len() as u64;
            st.extend_from_slice(data);
            Ok(at)
        }
        Op::Replace(i, s, data) => {
            let f = model.get_mut(&file(*i)).ok_or("NotFound")?;
            f.insert(stream(*s).to_owned(), data.clone());
            Ok(0)
        }
        Op::SetLen(i, s, len) | Op::PinnedSetLen(i, s, len) => {
            let f = model.get_mut(&file(*i)).ok_or("NotFound")?;
            let st = f.get_mut(stream(*s)).ok_or("StreamNotFound")?;
            st.resize(*len as usize, 0);
            Ok(0)
        }
        Op::DeleteStream(i, s) => {
            if stream(*s).is_empty() {
                return Err("InvalidPath");
            }
            let f = model.get_mut(&file(*i)).ok_or("NotFound")?;
            f.remove(stream(*s)).ok_or("StreamNotFound")?;
            Ok(0)
        }
        Op::Copy(a, b) => {
            let from = model.get(&file(*a)).ok_or("NotFound")?.clone();
            if model.contains_key(&file(*b)) {
                return Err("AlreadyExists");
            }
            model.insert(file(*b), from);
            Ok(0)
        }
        Op::Rename(a, b) => {
            if model.contains_key(&file(*b)) {
                return Err("AlreadyExists");
            }
            let from = model.remove(&file(*a)).ok_or("NotFound")?;
            model.insert(file(*b), from);
            Ok(0)
        }
        Op::Stat(i) => model
            .get(&file(*i))
            .map(|f| f.len() as u64)
            .ok_or("NotFound"),
        Op::Delete(i) => model.remove(&file(*i)).map(|_| 0).ok_or("NotFound"),
        Op::Pin(i) => model.get(&file(*i)).map(|_| 0).ok_or("NotFound"),
        Op::PinnedRead(i, s) => {
            let f = model.get(&file(*i)).ok_or("NotFound")?;
            let st = f.get(stream(*s)).ok_or("StreamNotFound")?;
            Ok(packed(
                st.get(2..)
                    .map_or(&[][..], |tail| &tail[..tail.len().min(4)]),
            ))
        }
        Op::PinnedLen(i, s) => {
            let f = model.get(&file(*i)).ok_or("NotFound")?;
            f.get(stream(*s))
                .map(|st| st.len() as u64)
                .ok_or("StreamNotFound")
        }
        Op::MoveDir => unreachable!("handled above"),
    }
}

/// Applies `op` to the VFS, taking and using the pins in `pins`.
fn apply(vfs: &Vfs, pins: &mut [Pin; 4], op: &Op) -> Result<u64, &'static str> {
    let root = |i: u8| vpath(i, 0);
    let pin = |i: u8| pins[i as usize % 4];
    kinded(match op {
        Op::Create(i) => vfs.create_file(&root(*i)).map(|()| 0),
        Op::Write(i, s, o, d) => vfs
            .write_stream(&vpath(*i, *s), *o as u64, d)
            .map(|n| n as u64),
        Op::Append(i, s, d) => vfs.append_stream(&vpath(*i, *s), d),
        Op::Replace(i, s, d) => vfs.write_stream_replace(&vpath(*i, *s), d).map(|()| 0),
        Op::SetLen(i, s, l) => vfs.set_stream_len(&vpath(*i, *s), *l as u64).map(|()| 0),
        Op::DeleteStream(i, s) => vfs.delete_stream(&vpath(*i, *s)).map(|()| 0),
        Op::Copy(a, b) => vfs.copy_file(&root(*a), &root(*b)).map(|()| 0),
        Op::Rename(a, b) => vfs.rename(&root(*a), &root(*b)).map(|()| 0),
        Op::Stat(i) => vfs.stat(&root(*i)).map(|m| m.streams.len() as u64),
        Op::Delete(i) => vfs.delete(&root(*i)).map(|()| 0),
        Op::MoveDir => {
            let (dir, away) = (VPath::parse(DIR), VPath::parse(AWAY));
            let (dir, away) = (dir.expect("dir"), away.expect("away"));
            vfs.rename(&dir, &away)
                .or_else(|_| vfs.rename(&away, &dir))
                .map(|()| 0)
        }
        Op::Pin(i) => vfs
            .pin(&root(*i))
            .map(|p| pins[*i as usize % 4] = p)
            .map(|()| 0),
        Op::PinnedWrite(i, s, o, d) => vfs
            .write_stream_pinned(pin(*i), &vpath(*i, *s), *o as u64, d)
            .map(|n| n as u64),
        Op::PinnedAppend(i, s, d) => vfs.append_stream_pinned(pin(*i), &vpath(*i, *s), d),
        Op::PinnedSetLen(i, s, l) => vfs
            .set_stream_len_pinned(pin(*i), &vpath(*i, *s), *l as u64)
            .map(|()| 0),
        Op::PinnedRead(i, s) => {
            let mut buf = [0u8; 4];
            vfs.read_stream_pinned(pin(*i), &vpath(*i, *s), 2, &mut buf)
                .map(|n| packed(&buf[..n]))
        }
        Op::PinnedLen(i, s) => vfs.stream_len_pinned(pin(*i), &vpath(*i, *s)),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn streams_agree_with_model(ops in proptest::collection::vec(op(), 1..80)) {
        let vfs = Vfs::new();
        vfs.create_dir(&VPath::parse(DIR).expect("dir")).expect("mkdir");
        let mut model = Model::default();
        let mut pins = [Pin::default(); 4];
        for op in &ops {
            let want = step(&mut model, op);
            prop_assert_eq!(apply(&vfs, &mut pins, op), want, "{:?}", op);
            if model.away {
                continue;
            }

            for i in 0..4u8 {
                let root = vpath(i, 0);
                let Some(streams) = model.files.get(&file(i)) else {
                    prop_assert_eq!(kinded(vfs.stat(&root)).err(), Some("NotFound"));
                    continue;
                };
                let meta = vfs.stat(&root).expect("model file exists");
                prop_assert_eq!(meta.kind, NodeKind::File);
                prop_assert_eq!(reported(&meta), expected_stat(streams), "stat {}", file(i));
                for s in 0..STREAMS.len() as u8 {
                    let path = vpath(i, s);
                    let content = streams.get(stream(s));
                    let missing = content.is_none().then_some("StreamNotFound");
                    prop_assert_eq!(kinded(vfs.read_stream_to_end(&path)).ok().as_ref(), content);
                    prop_assert_eq!(kinded(vfs.read_stream_to_end(&path)).err(), missing);
                    let len = content.map(|c| c.len() as u64);
                    prop_assert_eq!(kinded(vfs.stream_len(&path)).ok(), len);
                    let mut buf = [0u8; 8];
                    let read = kinded(vfs.read_stream(&path, 2, &mut buf));
                    let tail = content.map(|c| c.iter().skip(2).take(8).copied().collect::<Vec<_>>());
                    prop_assert_eq!(read.ok().map(|n| buf[..n].to_vec()), tail);
                }
            }
            let listing = vfs.list_dir(&VPath::parse(DIR).expect("dir")).expect("list");
            let lens: Vec<_> = listing.iter().map(|e| (e.name.clone(), e.len)).collect();
            let want: Vec<_> = model.files.iter().map(|(p, f)| (p.clone(), f[""].len() as u64)).collect();
            prop_assert_eq!(lens, want);
        }
    }
}
