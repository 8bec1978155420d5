#![warn(missing_docs)]
//! Simulated remote information sources.
//!
//! Section 3 of the paper grounds active files in concrete distributed
//! scenarios: fetching remote files "using a standard protocol (e.g., FTP
//! or HTTP)", merging "multiple remote files into a single local file", an
//! inbox whose reads retrieve messages "possibly from multiple remote POP
//! servers", an outbox that mails whatever is written to it, "the latest
//! stock quotes (downloaded by the sentinel from a server)", a file-based
//! view of the Windows registry, and searches over "a collection of
//! distributed databases" whose changes the intermediary approach cannot
//! see.
//!
//! This crate implements each of those sources as an [`afs_net::Service`]
//! with a small length-prefixed wire protocol, plus a typed client for
//! sentinel code:
//!
//! | Source                     | Server                       | Client            |
//! |----------------------------|------------------------------|-------------------|
//! | FTP/HTTP-style file server | [`FileServer`]               | [`FileClient`]    |
//! | POP3 mailbox + SMTP relay  | [`PopServer`], [`SmtpServer`]| [`MailClient`]    |
//! | Stock quote feed           | [`QuoteServer`]              | [`QuoteClient`]   |
//! | System registry            | [`RegistryServer`]           | [`RegistryClient`]|
//! | Key-value database         | [`DbServer`]                 | [`DbClient`]      |
//!
//! Servers are deterministic (the quote feed is a seeded random walk) so
//! experiments replay exactly.

pub mod cluster;
pub mod db;
pub mod file_server;
pub mod mail;
pub mod quotes;
pub mod registry;

pub use cluster::ClusterClient;
pub use db::{DbClient, DbEvent, DbOp, DbServer};
pub use file_server::{FileClient, FileServer, RemoteStat};
pub use mail::{MailClient, MailStore, Message, PopServer, SmtpServer};
pub use quotes::{Quote, QuoteClient, QuoteServer};
pub use registry::{RegistryClient, RegistryServer, RegistryValue};

/// Status byte prefixed to every response: request succeeded.
pub(crate) const STATUS_OK: u8 = 0;
/// Status byte prefixed to every response: request failed; a UTF-8 error
/// message follows.
pub(crate) const STATUS_ERR: u8 = 1;

pub(crate) fn ok_response(body: impl FnOnce(&mut afs_net::WireWriter)) -> Vec<u8> {
    let mut w = afs_net::WireWriter::new();
    w.u8(STATUS_OK);
    body(&mut w);
    w.finish()
}

pub(crate) fn err_response(msg: &str) -> Vec<u8> {
    let mut reply = Vec::new();
    err_into(&mut reply, msg);
    reply
}

/// Appends an error reply to `reply`.
pub(crate) fn err_into(reply: &mut Vec<u8>, msg: &str) {
    let mut w = afs_net::WireWriter::from(std::mem::take(reply));
    w.u8(STATUS_ERR).str(msg);
    *reply = w.finish();
}

/// Decodes the status byte of a response, turning server-side failures
/// into [`afs_net::NetError::Rejected`].
pub(crate) fn check_status<'a>(
    response: &'a [u8],
) -> Result<afs_net::WireReader<'a>, afs_net::NetError> {
    let mut r = afs_net::WireReader::new(response);
    match r.u8()? {
        STATUS_OK => Ok(r),
        STATUS_ERR => {
            let msg = r.str()?.to_owned();
            Err(afs_net::NetError::Rejected(msg))
        }
        t => Err(afs_net::NetError::Malformed(afs_net::WireError::BadTag(t))),
    }
}
