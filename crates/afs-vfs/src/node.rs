//! On-"disk" node representation: directories, files, streams, attributes.

use std::collections::BTreeMap;

/// Whether a directory entry is a file or a directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// A regular file (possibly with multiple streams).
    File,
    /// A directory.
    Directory,
}

/// NT-style file attribute bits. Plain data; fields are public.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct FileAttributes {
    /// Writes and deletes are refused.
    pub readonly: bool,
    /// Excluded from default directory listings.
    pub hidden: bool,
    /// Marked as an operating-system file.
    pub system: bool,
}

/// Metadata reported by [`crate::Vfs::stat`]. Plain data; fields are
/// public.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metadata {
    /// File or directory.
    pub kind: NodeKind,
    /// Length of the default stream in bytes (0 for directories).
    pub len: u64,
    /// Sum of all stream lengths in bytes (0 for directories).
    pub total_len: u64,
    /// Names of all streams, sorted; empty for directories.
    pub streams: Vec<String>,
    /// Attribute bits.
    pub attributes: FileAttributes,
    /// Logical creation tick.
    pub created: u64,
    /// Logical tick of the last mutation.
    pub modified: u64,
}

/// One row of a directory listing. Plain data; fields are public.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// Component name within the parent directory.
    pub name: String,
    /// File or directory.
    pub kind: NodeKind,
    /// Length of the default stream (0 for directories).
    pub len: u64,
    /// Attribute bits.
    pub attributes: FileAttributes,
}

/// A file: its data part (the default stream) and its named streams.
///
/// The default stream is a field, not a map entry keyed by the empty name:
/// a `BTreeMap<String, _>` lookup of `""` compares against Rust's dangling
/// address for an empty string, and on an AVX-512 host glibc's `memcmp` of
/// zero bytes at that address measured 128–153 ns, the biggest single cost
/// of a file server's read (docs/CONCURRENCY.md, "An empty name is not
/// free"). So no op compares the empty name: [`FileNode::stream`],
/// [`FileNode::stream_mut`] and [`FileNode::stream_or_new`] branch on it.
///
/// The named streams are a short `Vec` sorted by name and searched by
/// index: a file has a few (an active file three at most), so a scan that
/// tests names for equality finds one with a single compare, and a miss
/// inserts at an index without a second search, where a map walks twice.
#[derive(Debug, Clone, Default)]
pub(crate) struct FileNode {
    /// The default stream.
    pub(crate) data: Vec<u8>,
    /// The named streams, sorted by name; never holds the empty name.
    named: Vec<(String, Vec<u8>)>,
    pub(crate) attributes: FileAttributes,
    pub(crate) created: u64,
    pub(crate) modified: u64,
}

impl FileNode {
    /// An empty file, created at `tick`.
    pub(crate) fn new(tick: u64) -> Self {
        FileNode {
            created: tick,
            modified: tick,
            ..FileNode::default()
        }
    }

    /// The index of the named stream `name`. Names are tested for
    /// equality, which compares bytes only with a name as long as its own
    /// (so never with the empty one, which the list never holds).
    fn find(&self, name: &str) -> Option<usize> {
        self.named.iter().position(|(n, _)| n == name)
    }

    /// The stream called `name` (`""`: the default stream), if it exists.
    pub(crate) fn stream(&self, name: &str) -> Option<&Vec<u8>> {
        if name.is_empty() {
            Some(&self.data)
        } else {
            let at = self.find(name)?;
            Some(&self.named[at].1)
        }
    }

    /// The stream called `name`, mutably, if it exists.
    pub(crate) fn stream_mut(&mut self, name: &str) -> Option<&mut Vec<u8>> {
        if name.is_empty() {
            Some(&mut self.data)
        } else {
            let at = self.find(name)?;
            Some(&mut self.named[at].1)
        }
    }

    /// The stream called `name`, created empty on first use — the only
    /// time a named stream's name is allocated — after one search.
    pub(crate) fn stream_or_new(&mut self, name: &str) -> &mut Vec<u8> {
        if name.is_empty() {
            return &mut self.data;
        }
        let at = match self.find(name) {
            Some(at) => at,
            None => {
                let at = self.named.partition_point(|(n, _)| n.as_str() < name);
                self.named.insert(at, (name.to_owned(), Vec::new()));
                at
            }
        };
        &mut self.named[at].1
    }

    /// Deletes the named stream `name`, returning its bytes if it existed.
    pub(crate) fn remove_named(&mut self, name: &str) -> Option<Vec<u8>> {
        let at = self.find(name)?;
        Some(self.named.remove(at).1)
    }

    /// Every stream's name, the default stream's (`""`) first, then the
    /// named ones sorted.
    pub(crate) fn stream_names(&self) -> Vec<String> {
        let named = self.named.iter().map(|(n, _)| n.clone());
        std::iter::once(String::new()).chain(named).collect()
    }

    /// The length of all streams together.
    pub(crate) fn total_len(&self) -> u64 {
        let named: usize = self.named.iter().map(|(_, s)| s.len()).sum();
        (self.data.len() + named) as u64
    }
}

#[derive(Debug, Clone)]
pub(crate) struct DirNode {
    pub(crate) children: BTreeMap<String, usize>,
    pub(crate) created: u64,
    pub(crate) modified: u64,
}

/// A slot of the node table. A file is boxed so that a slot stays 48
/// bytes: unboxed, a [`FileNode`] grows every slot, a directory's too, to
/// 72 bytes, and that alone moved the benchmark's peak RSS by about 1 MiB
/// on four workloads, through where the allocator then placed their 1 MiB
/// buffers (docs/CONCURRENCY.md, "An empty name is not free").
#[derive(Debug, Clone)]
pub(crate) enum Node {
    File(Box<FileNode>),
    Dir(DirNode),
}

impl Node {
    pub(crate) fn kind(&self) -> NodeKind {
        match self {
            Node::File(_) => NodeKind::File,
            Node::Dir(_) => NodeKind::Directory,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_report_correctly() {
        let f = Node::File(Box::default());
        let d = Node::Dir(DirNode {
            children: BTreeMap::new(),
            created: 0,
            modified: 0,
        });
        assert_eq!(f.kind(), NodeKind::File);
        assert_eq!(d.kind(), NodeKind::Directory);
    }

    #[test]
    fn default_attributes_are_clear() {
        let a = FileAttributes::default();
        assert!(!a.readonly && !a.hidden && !a.system);
    }
}
