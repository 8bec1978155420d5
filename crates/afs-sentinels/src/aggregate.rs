//! Aggregation sentinels (§3).
//!
//! "The sentinel can aggregate information from various sources,
//! presenting it to client applications as a conventional file. Examples
//! of these sources include other local or remote files, databases,
//! network connections, or even other processes."

use std::collections::BTreeMap;

use afs_core::{SentinelCtx, SentinelError, SentinelLogic, SentinelRegistry, SentinelResult};
use afs_remote::{FileClient, MailClient, QuoteClient, RegistryClient, RegistryValue};

/// Seamless access to one remote file: fetched into the local cache on
/// open, written back on close if modified — "the sentinel accesses the
/// remote file using a standard protocol (e.g., FTP or HTTP), creates a
/// local copy, and makes the copy available to the client application"
/// (§3).
///
/// Configuration: `service` (file-server name), `remote` (path on the
/// server), `writeback` (`true` to push changes on close; default true).
/// A writeback replaces the file, which a fleet keeping two copies of it
/// refuses ([`FileClient::replace`]): over one, set `writeback=false`.
pub struct RemoteFileSentinel {
    /// The session with `service`, made at open and kept for writeback.
    client: Option<FileClient>,
    dirty: bool,
}

impl RemoteFileSentinel {
    /// Creates the sentinel.
    pub fn new() -> Self {
        RemoteFileSentinel {
            client: None,
            dirty: false,
        }
    }
}

impl Default for RemoteFileSentinel {
    fn default() -> Self {
        RemoteFileSentinel::new()
    }
}

impl SentinelLogic for RemoteFileSentinel {
    fn on_open(&mut self, ctx: &mut SentinelCtx) -> SentinelResult<()> {
        let service = ctx.require_str("service")?.to_owned();
        let remote = ctx.require_str("remote")?.to_owned();
        let client = FileClient::new(ctx.endpoint(&service));
        let data = client.get_all(&remote)?;
        ctx.cache().replace(&data)?;
        self.client = Some(client);
        Ok(())
    }

    fn read(
        &mut self,
        ctx: &mut SentinelCtx,
        offset: u64,
        buf: &mut [u8],
    ) -> SentinelResult<usize> {
        ctx.cache().read_at(offset, buf)
    }

    fn write(&mut self, ctx: &mut SentinelCtx, offset: u64, data: &[u8]) -> SentinelResult<usize> {
        let n = ctx.cache().write_at(offset, data)?;
        self.dirty = true;
        Ok(n)
    }

    fn flush(&mut self, ctx: &mut SentinelCtx) -> SentinelResult<()> {
        if let (true, Some(client)) = (self.dirty, &self.client) {
            let remote = ctx.require_str("remote")?.to_owned();
            let writeback = ctx
                .config_str("writeback")
                .map(|v| v != "false")
                .unwrap_or(true);
            if writeback {
                let data = ctx.cache().to_vec()?;
                client.replace(&remote, &data)?;
                self.dirty = false;
            }
        }
        Ok(())
    }

    fn on_close(&mut self, ctx: &mut SentinelCtx) -> SentinelResult<()> {
        self.flush(ctx)
    }
}

/// Merges several remote files into one local view: "the sentinel can
/// also merge multiple remote files into a single local file" (§3).
/// Read-only.
///
/// Configuration: `service`, `remotes` (comma-separated paths),
/// `separator` (string inserted between parts; default none).
pub struct MergeSentinel;

impl MergeSentinel {
    /// Creates the sentinel.
    pub fn new() -> Self {
        MergeSentinel
    }
}

impl Default for MergeSentinel {
    fn default() -> Self {
        MergeSentinel::new()
    }
}

impl SentinelLogic for MergeSentinel {
    fn on_open(&mut self, ctx: &mut SentinelCtx) -> SentinelResult<()> {
        let service = ctx.require_str("service")?.to_owned();
        let remotes = ctx.require_str("remotes")?.to_owned();
        let separator = ctx.config_str("separator").unwrap_or("").to_owned();
        let client = FileClient::new(ctx.endpoint(&service));
        let mut merged = Vec::new();
        for (i, remote) in remotes.split(',').map(str::trim).enumerate() {
            if i > 0 {
                merged.extend_from_slice(separator.as_bytes());
            }
            merged.extend_from_slice(&client.get_all(remote)?);
        }
        ctx.cache().replace(&merged)?;
        Ok(())
    }

    fn read(
        &mut self,
        ctx: &mut SentinelCtx,
        offset: u64,
        buf: &mut [u8],
    ) -> SentinelResult<usize> {
        ctx.cache().read_at(offset, buf)
    }

    fn write(
        &mut self,
        _ctx: &mut SentinelCtx,
        _offset: u64,
        _data: &[u8],
    ) -> SentinelResult<usize> {
        Err(SentinelError::Unsupported)
    }
}

/// The POP inbox file: "an inbox file of an E-mail program can be such
/// that reading it causes new messages to be retrieved possibly from
/// multiple remote POP servers" (§3). Messages are rendered mbox-style;
/// retrieved messages are deleted from the servers when `delete=true`.
///
/// Configuration: `servers` (comma-separated POP service names), `user`
/// (mailbox owner; defaults to the opening user), `delete`
/// (default false).
pub struct InboxSentinel;

impl InboxSentinel {
    /// Creates the sentinel.
    pub fn new() -> Self {
        InboxSentinel
    }
}

impl Default for InboxSentinel {
    fn default() -> Self {
        InboxSentinel::new()
    }
}

impl SentinelLogic for InboxSentinel {
    fn on_open(&mut self, ctx: &mut SentinelCtx) -> SentinelResult<()> {
        let servers = ctx.require_str("servers")?.to_owned();
        let user = ctx
            .config_str("user")
            .map(str::to_owned)
            .unwrap_or_else(|| ctx.user().to_owned());
        let delete = ctx.config_bool("delete");
        let client = MailClient::new(ctx.net().clone());
        let mut rendered = Vec::new();
        for server in servers.split(',').map(str::trim) {
            for id in client.list(server, &user)? {
                let msg = client.retrieve(server, &user, id)?;
                rendered.extend_from_slice(
                    format!(
                        "From: {}\nSubject: {}\n\n{}\n\n",
                        msg.from, msg.subject, msg.body
                    )
                    .as_bytes(),
                );
                if delete {
                    client.delete(server, &user, id)?;
                }
            }
        }
        ctx.cache().replace(&rendered)?;
        Ok(())
    }

    fn read(
        &mut self,
        ctx: &mut SentinelCtx,
        offset: u64,
        buf: &mut [u8],
    ) -> SentinelResult<usize> {
        ctx.cache().read_at(offset, buf)
    }

    fn write(
        &mut self,
        _ctx: &mut SentinelCtx,
        _offset: u64,
        _data: &[u8],
    ) -> SentinelResult<usize> {
        Err(SentinelError::Unsupported)
    }
}

/// The stock-quote file: "an active file that reflects the latest stock
/// quotes (downloaded by the sentinel from a server) every time the file
/// is opened" (§3). Renders `SYMBOL<TAB>dollars.cents` lines.
///
/// Configuration: `service` (quote service name), `symbols`
/// (comma-separated tickers).
pub struct StockTickerSentinel;

impl StockTickerSentinel {
    /// Creates the sentinel.
    pub fn new() -> Self {
        StockTickerSentinel
    }
}

impl Default for StockTickerSentinel {
    fn default() -> Self {
        StockTickerSentinel::new()
    }
}

impl SentinelLogic for StockTickerSentinel {
    fn on_open(&mut self, ctx: &mut SentinelCtx) -> SentinelResult<()> {
        let service = ctx.require_str("service")?.to_owned();
        let symbols_cfg = ctx.require_str("symbols")?.to_owned();
        let symbols: Vec<&str> = symbols_cfg.split(',').map(str::trim).collect();
        let quotes = QuoteClient::new(ctx.endpoint(&service)).quotes(&symbols)?;
        let mut rendered = String::new();
        for q in &quotes {
            rendered.push_str(&format!(
                "{}\t{}.{:02}\n",
                q.symbol,
                q.cents / 100,
                q.cents % 100
            ));
        }
        ctx.cache().replace(rendered.as_bytes())?;
        Ok(())
    }

    fn read(
        &mut self,
        ctx: &mut SentinelCtx,
        offset: u64,
        buf: &mut [u8],
    ) -> SentinelResult<usize> {
        ctx.cache().read_at(offset, buf)
    }

    fn write(
        &mut self,
        _ctx: &mut SentinelCtx,
        _offset: u64,
        _data: &[u8],
    ) -> SentinelResult<usize> {
        Err(SentinelError::Unsupported)
    }
}

/// The registry-as-a-file sentinel: "filtering can also be used to
/// provide a file-based interface to the Windows system registry …
/// providing a simplified version (e.g., a plain text file) to the
/// client application. Any modifications by the client application can
/// in turn be parsed by the sentinel process and translated into
/// appropriate registry modifications" (§3).
///
/// The rendered text is one `name=value` line per value of the
/// configured key, sorted by name. Writing the file back applies the
/// diff: changed/added lines become `SetValue`, removed lines become
/// `DeleteValue`. String values only (the "simplified version").
///
/// Configuration: `service` (registry service name), `key` (key path).
pub struct RegistryFileSentinel {
    view: Vec<u8>,
    dirty: bool,
}

impl RegistryFileSentinel {
    /// Creates the sentinel.
    pub fn new() -> Self {
        RegistryFileSentinel {
            view: Vec::new(),
            dirty: false,
        }
    }

    fn parse_lines(text: &str) -> Vec<(String, String)> {
        text.lines()
            .filter_map(|line| {
                let line = line.trim();
                if line.is_empty() {
                    return None;
                }
                line.split_once('=')
                    .map(|(k, v)| (k.trim().to_owned(), v.trim().to_owned()))
            })
            .collect()
    }
}

impl Default for RegistryFileSentinel {
    fn default() -> Self {
        RegistryFileSentinel::new()
    }
}

impl SentinelLogic for RegistryFileSentinel {
    fn on_open(&mut self, ctx: &mut SentinelCtx) -> SentinelResult<()> {
        let service = ctx.require_str("service")?.to_owned();
        let key = ctx.require_str("key")?.to_owned();
        let values = RegistryClient::new(ctx.endpoint(&service)).enum_values(&key)?;
        let mut rendered = String::new();
        for (name, value) in values {
            let shown = match value {
                RegistryValue::Str(s) => s,
                RegistryValue::U32(v) => v.to_string(),
                RegistryValue::Bin(b) => b
                    .iter()
                    .map(|byte| format!("{byte:02x}"))
                    .collect::<String>(),
            };
            rendered.push_str(&format!("{name}={shown}\n"));
        }
        self.view = rendered.into_bytes();
        Ok(())
    }

    fn read(
        &mut self,
        _ctx: &mut SentinelCtx,
        offset: u64,
        buf: &mut [u8],
    ) -> SentinelResult<usize> {
        let start = (offset as usize).min(self.view.len());
        let n = buf.len().min(self.view.len() - start);
        buf[..n].copy_from_slice(&self.view[start..start + n]);
        Ok(n)
    }

    fn write(&mut self, _ctx: &mut SentinelCtx, offset: u64, data: &[u8]) -> SentinelResult<usize> {
        let end = offset as usize + data.len();
        if self.view.len() < end {
            self.view.resize(end, 0);
        }
        self.view[offset as usize..end].copy_from_slice(data);
        self.dirty = true;
        Ok(data.len())
    }

    fn len(&mut self, _ctx: &mut SentinelCtx) -> SentinelResult<u64> {
        Ok(self.view.len() as u64)
    }

    fn on_close(&mut self, ctx: &mut SentinelCtx) -> SentinelResult<()> {
        if !self.dirty {
            return Ok(());
        }
        let service = ctx.require_str("service")?.to_owned();
        let key = ctx.require_str("key")?.to_owned();
        let client = RegistryClient::new(ctx.endpoint(&service));
        let current: std::collections::BTreeMap<String, String> = client
            .enum_values(&key)?
            .into_iter()
            .map(|(name, value)| {
                let shown = match value {
                    RegistryValue::Str(s) => s,
                    RegistryValue::U32(v) => v.to_string(),
                    RegistryValue::Bin(b) => b
                        .iter()
                        .map(|byte| format!("{byte:02x}"))
                        .collect::<String>(),
                };
                (name, shown)
            })
            .collect();
        let text = String::from_utf8_lossy(&self.view).into_owned();
        let edited = Self::parse_lines(&text);
        let edited_map: std::collections::BTreeMap<_, _> = edited.iter().cloned().collect();
        // Apply additions and modifications.
        for (name, value) in &edited_map {
            if current.get(name) != Some(value) {
                client.set_value(&key, name, &RegistryValue::Str(value.clone()))?;
            }
        }
        // Apply deletions.
        for name in current.keys() {
            if !edited_map.contains_key(name) {
                client.delete_value(&key, name)?;
            }
        }
        Ok(())
    }
}

/// Control code: get (empty payload) or set (comma-separated payload)
/// the table schema of a [`TableSentinel`].
pub const CTL_SQL_SCHEMA: u32 = 0xAF00_5C01;
/// Control code: install a new query (the payload, `select … [where …]`)
/// on a [`TableSentinel`] and return its rendered result.
pub const CTL_SQL_QUERY: u32 = 0xAF00_5C02;
/// Control code: count rows of a [`TableSentinel`]; an optional payload
/// `<col> <op> <value>` counts only matching rows.
pub const CTL_SQL_COUNT: u32 = 0xAF00_5C03;

/// A comparison in the predicate mini-language of [`TableSentinel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PredOp {
    Eq,
    Ne,
    Lt,
    Gt,
    Le,
    Ge,
    Contains,
}

impl PredOp {
    fn parse(tok: &str) -> Option<PredOp> {
        Some(match tok {
            "=" | "==" => PredOp::Eq,
            "!=" | "<>" => PredOp::Ne,
            "<" => PredOp::Lt,
            ">" => PredOp::Gt,
            "<=" => PredOp::Le,
            ">=" => PredOp::Ge,
            "contains" => PredOp::Contains,
            _ => return None,
        })
    }

    /// Compares numerically when both sides parse as numbers, else
    /// lexicographically — the usual "schemaless SQL" affordance.
    fn matches(self, lhs: &str, rhs: &str) -> bool {
        use std::cmp::Ordering;
        let ord = match (lhs.parse::<f64>(), rhs.parse::<f64>()) {
            (Ok(a), Ok(b)) => a.partial_cmp(&b).unwrap_or(Ordering::Equal),
            _ => lhs.cmp(rhs),
        };
        match self {
            PredOp::Eq => ord == Ordering::Equal,
            PredOp::Ne => ord != Ordering::Equal,
            PredOp::Lt => ord == Ordering::Less,
            PredOp::Gt => ord == Ordering::Greater,
            PredOp::Le => ord != Ordering::Greater,
            PredOp::Ge => ord != Ordering::Less,
            PredOp::Contains => lhs.contains(rhs),
        }
    }
}

/// A parsed `select` statement: optional projection and optional
/// single-comparison predicate.
#[derive(Debug, Clone)]
struct Query {
    /// `None` = `select *`.
    cols: Option<Vec<String>>,
    predicate: Option<(String, PredOp, String)>,
}

impl Query {
    fn select_all() -> Self {
        Query {
            cols: None,
            predicate: None,
        }
    }
}

/// Strips optional single quotes so values may contain spaces.
fn unquote(v: &str) -> &str {
    v.strip_prefix('\'')
        .and_then(|v| v.strip_suffix('\''))
        .unwrap_or(v)
}

/// Parses `<col> <op> <value>` (value may be single-quoted).
fn parse_predicate(text: &str) -> SentinelResult<(String, PredOp, String)> {
    let text = text.trim();
    let (col, rest) = text
        .split_once(char::is_whitespace)
        .ok_or_else(|| SentinelError::Other(format!("bad predicate: `{text}`")))?;
    let rest = rest.trim_start();
    let (op_tok, value) = rest
        .split_once(char::is_whitespace)
        .ok_or_else(|| SentinelError::Other(format!("bad predicate: `{text}`")))?;
    let op = PredOp::parse(op_tok)
        .ok_or_else(|| SentinelError::Other(format!("unknown operator `{op_tok}`")))?;
    Ok((col.to_owned(), op, unquote(value.trim()).to_owned()))
}

/// Parses `select <cols|*> [where <col> <op> <value>]`.
fn parse_query(text: &str) -> SentinelResult<Query> {
    let text = text.trim();
    let rest = text
        .strip_prefix("select ")
        .or_else(|| text.strip_prefix("SELECT "))
        .ok_or_else(|| SentinelError::Other(format!("query must start with `select`: `{text}`")))?
        .trim_start();
    let (proj, predicate) = match rest.find(" where ").or_else(|| rest.find(" WHERE ")) {
        Some(i) => (&rest[..i], Some(parse_predicate(&rest[i + 7..])?)),
        None => (rest, None),
    };
    let proj = proj.trim();
    let cols = if proj == "*" {
        None
    } else {
        let cols: Vec<String> = proj
            .split(',')
            .map(|c| c.trim().to_owned())
            .filter(|c| !c.is_empty())
            .collect();
        if cols.is_empty() {
            return Err(SentinelError::Other("empty projection".into()));
        }
        Some(cols)
    };
    Ok(Query { cols, predicate })
}

/// Escapes a cell for the tab-separated persisted/rendered forms.
fn escape_cell(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('\t', "\\t")
        .replace('\n', "\\n")
}

fn unescape_cell(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    let mut chars = v.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('t') => out.push('\t'),
                Some('n') => out.push('\n'),
                Some(other) => out.push(other),
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// The SQL-queryable aggregate table (§3 "databases" as a source, taken
/// literally): the active file *is* a table. Writing CSV lines upserts
/// rows keyed by the first schema column; reading renders the current
/// query's result; pragma-style [`SentinelLogic::control`] codes expose
/// schema ([`CTL_SQL_SCHEMA`]), ad-hoc queries ([`CTL_SQL_QUERY`]) and
/// row counts ([`CTL_SQL_COUNT`]). Rows live in the sentinel's cache, so
/// a spec with `durable=on` gets a WAL-backed table that survives crash
/// and reopen; the runtime's `CTL_STORE_*` codes then checkpoint it and
/// tune its sync mode.
///
/// Configuration: `schema` (comma-separated column names; the first is
/// the primary key), `query` (initial query; default `select *`).
pub struct TableSentinel {
    schema: Vec<String>,
    rows: BTreeMap<String, Vec<String>>,
    query: Query,
    pending: String,
}

impl TableSentinel {
    /// Creates the sentinel; schema is loaded on open.
    pub fn new() -> Self {
        TableSentinel {
            schema: Vec::new(),
            rows: BTreeMap::new(),
            query: Query::select_all(),
            pending: String::new(),
        }
    }

    /// Serialises schema + rows into the cache, which is where durability
    /// (if configured) lives.
    fn persist(&self, ctx: &mut SentinelCtx) -> SentinelResult<()> {
        let mut out = String::new();
        out.push_str(
            &self
                .schema
                .iter()
                .map(|c| escape_cell(c))
                .collect::<Vec<_>>()
                .join("\t"),
        );
        out.push('\n');
        for row in self.rows.values() {
            out.push_str(
                &row.iter()
                    .map(|c| escape_cell(c))
                    .collect::<Vec<_>>()
                    .join("\t"),
            );
            out.push('\n');
        }
        ctx.cache().replace(out.as_bytes())
    }

    /// Loads schema + rows from the cache image; `true` if it held a table.
    fn load(&mut self, image: &[u8]) -> bool {
        let text = String::from_utf8_lossy(image);
        let mut lines = text.lines();
        let Some(header) = lines.next() else {
            return false;
        };
        let schema: Vec<String> = header.split('\t').map(unescape_cell).collect();
        if schema.is_empty() || schema.iter().any(String::is_empty) {
            return false;
        }
        let mut rows = BTreeMap::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let mut row: Vec<String> = line.split('\t').map(unescape_cell).collect();
            row.resize(schema.len(), String::new());
            rows.insert(row[0].clone(), row);
        }
        self.schema = schema;
        self.rows = rows;
        true
    }

    fn col_index(&self, name: &str) -> SentinelResult<usize> {
        self.schema
            .iter()
            .position(|c| c == name)
            .ok_or_else(|| SentinelError::Other(format!("unknown column `{name}`")))
    }

    fn row_matches(&self, row: &[String], pred: &Option<(String, PredOp, String)>) -> bool {
        match pred {
            None => true,
            Some((col, op, value)) => match self.col_index(col) {
                Ok(i) => op.matches(&row[i], value),
                Err(_) => false,
            },
        }
    }

    /// Renders the current query over the current rows: a header line of
    /// projected column names, then one TSV line per matching row.
    fn render(&self) -> SentinelResult<String> {
        let indices: Vec<usize> = match &self.query.cols {
            None => (0..self.schema.len()).collect(),
            Some(cols) => cols
                .iter()
                .map(|c| self.col_index(c))
                .collect::<SentinelResult<_>>()?,
        };
        if let Some((col, _, _)) = &self.query.predicate {
            self.col_index(col)?;
        }
        let mut out = String::new();
        out.push_str(
            &indices
                .iter()
                .map(|&i| escape_cell(&self.schema[i]))
                .collect::<Vec<_>>()
                .join("\t"),
        );
        out.push('\n');
        for row in self.rows.values() {
            if !self.row_matches(row, &self.query.predicate) {
                continue;
            }
            out.push_str(
                &indices
                    .iter()
                    .map(|&i| escape_cell(&row[i]))
                    .collect::<Vec<_>>()
                    .join("\t"),
            );
            out.push('\n');
        }
        Ok(out)
    }

    /// Upserts one CSV line; blank lines are ignored.
    fn upsert_line(&mut self, line: &str) -> SentinelResult<()> {
        let line = line.trim();
        if line.is_empty() {
            return Ok(());
        }
        let mut row: Vec<String> = line
            .split(',')
            .map(|v| unquote(v.trim()).to_owned())
            .collect();
        if row.len() > self.schema.len() {
            return Err(SentinelError::Other(format!(
                "row has {} values but schema has {} columns",
                row.len(),
                self.schema.len()
            )));
        }
        row.resize(self.schema.len(), String::new());
        if row[0].is_empty() {
            return Err(SentinelError::Other("empty primary key".into()));
        }
        self.rows.insert(row[0].clone(), row);
        Ok(())
    }

    fn drain_pending(&mut self, ctx: &mut SentinelCtx) -> SentinelResult<()> {
        let mut changed = false;
        while let Some(i) = self.pending.find('\n') {
            let line: String = self.pending.drain(..=i).collect();
            self.upsert_line(&line)?;
            changed = true;
        }
        if changed {
            self.persist(ctx)?;
        }
        Ok(())
    }

    fn set_schema(&mut self, ctx: &mut SentinelCtx, text: &str) -> SentinelResult<()> {
        let schema: Vec<String> = text
            .split(',')
            .map(|c| c.trim().to_owned())
            .filter(|c| !c.is_empty())
            .collect();
        if schema.is_empty() {
            return Err(SentinelError::Other("empty schema".into()));
        }
        if !self.rows.is_empty() && schema != self.schema {
            return Err(SentinelError::Other(
                "cannot change the schema of a non-empty table".into(),
            ));
        }
        self.schema = schema;
        self.persist(ctx)
    }
}

impl Default for TableSentinel {
    fn default() -> Self {
        TableSentinel::new()
    }
}

impl SentinelLogic for TableSentinel {
    fn on_open(&mut self, ctx: &mut SentinelCtx) -> SentinelResult<()> {
        if ctx.cache().kind().is_none() {
            return Err(SentinelError::Other(
                "table sentinel requires a cache backing".into(),
            ));
        }
        // A persisted table (possibly recovered from the WAL) wins over
        // the spec: the data outlives any one open.
        let image = ctx.cache().to_vec()?;
        if !image.is_empty() && self.load(&image) {
            // Loaded from the cache.
        } else {
            let schema = ctx.require_str("schema")?.to_owned();
            self.set_schema(ctx, &schema)?;
        }
        if let Some(q) = ctx.config_str("query") {
            self.query = parse_query(q)?;
        }
        Ok(())
    }

    fn read(
        &mut self,
        _ctx: &mut SentinelCtx,
        offset: u64,
        buf: &mut [u8],
    ) -> SentinelResult<usize> {
        let rendered = self.render()?;
        let bytes = rendered.as_bytes();
        let start = (offset as usize).min(bytes.len());
        let n = buf.len().min(bytes.len() - start);
        buf[..n].copy_from_slice(&bytes[start..start + n]);
        Ok(n)
    }

    fn write(&mut self, ctx: &mut SentinelCtx, _offset: u64, data: &[u8]) -> SentinelResult<usize> {
        // Writes are row upserts, not byte edits: the offset is ignored
        // and the payload is buffered until a full CSV line arrives.
        self.pending.push_str(&String::from_utf8_lossy(data));
        self.drain_pending(ctx)?;
        Ok(data.len())
    }

    fn len(&mut self, _ctx: &mut SentinelCtx) -> SentinelResult<u64> {
        Ok(self.render()?.len() as u64)
    }

    fn control(
        &mut self,
        ctx: &mut SentinelCtx,
        code: u32,
        payload: &[u8],
    ) -> SentinelResult<Vec<u8>> {
        let text = String::from_utf8_lossy(payload).into_owned();
        match code {
            CTL_SQL_SCHEMA => {
                if !text.trim().is_empty() {
                    self.set_schema(ctx, &text)?;
                }
                Ok(self.schema.join(",").into_bytes())
            }
            CTL_SQL_QUERY => {
                self.query = parse_query(&text)?;
                Ok(self.render()?.into_bytes())
            }
            CTL_SQL_COUNT => {
                let pred = if text.trim().is_empty() {
                    None
                } else {
                    Some(parse_predicate(&text)?)
                };
                if let Some((col, _, _)) = &pred {
                    self.col_index(col)?;
                }
                let n = self
                    .rows
                    .values()
                    .filter(|row| self.row_matches(row, &pred))
                    .count();
                Ok(n.to_string().into_bytes())
            }
            _ => Err(SentinelError::Unsupported),
        }
    }

    fn flush(&mut self, ctx: &mut SentinelCtx) -> SentinelResult<()> {
        // A trailing unterminated line is committed on flush/close so
        // `write; close` never loses the last row.
        if !self.pending.trim().is_empty() {
            let line = std::mem::take(&mut self.pending);
            self.upsert_line(&line)?;
            self.persist(ctx)?;
        } else {
            self.pending.clear();
        }
        Ok(())
    }

    fn on_close(&mut self, ctx: &mut SentinelCtx) -> SentinelResult<()> {
        self.flush(ctx)
    }
}

/// Registers `remote-file`, `merge`, `inbox`, `stock-ticker`,
/// `registry-file`, and `table` — each with its declared configuration
/// keys, so a typo'd key is rejected at open time.
pub fn register(registry: &SentinelRegistry) {
    registry.register_with_keys("remote-file", &["service", "remote", "writeback"], |_| {
        Box::new(RemoteFileSentinel::new())
    });
    registry.register_with_keys("merge", &["service", "remotes", "separator"], |_| {
        Box::new(MergeSentinel::new())
    });
    registry.register_with_keys("inbox", &["servers", "user", "delete"], |_| {
        Box::new(InboxSentinel::new())
    });
    registry.register_with_keys("stock-ticker", &["service", "symbols"], |_| {
        Box::new(StockTickerSentinel::new())
    });
    registry.register_with_keys("registry-file", &["service", "key"], |_| {
        Box::new(RegistryFileSentinel::new())
    });
    registry.register_with_keys("table", &["schema", "query"], |_| {
        Box::new(TableSentinel::new())
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{read_active, test_world, write_active};
    use afs_core::{Backing, SentinelSpec, Strategy};
    use afs_net::Service;
    use afs_remote::{FileServer, MailStore, PopServer, QuoteServer, RegistryServer};
    use std::sync::Arc;

    #[test]
    fn remote_file_reads_a_fleet_copy_with_the_primary_partitioned() {
        let world = test_world();
        crate::test_fleet(&world);
        let writer = afs_remote::FileClient::new(world.net().endpoint(["fleet"]));
        writer.put("/shared/doc", 0, b"replicated").expect("put");
        let primary = &writer.owners("/shared/doc")[0];
        world
            .net()
            .plan(primary)
            .expect("plan")
            .set_partitioned(true);
        world
            .install_active_file(
                "/doc.af",
                &SentinelSpec::new("remote-file", Strategy::DllOnly)
                    .backing(Backing::Memory)
                    .with("service", "fleet")
                    .with("remote", "/shared/doc"),
            )
            .expect("install");
        // `get_all` on open walks the path's owners: the replica serves.
        assert_eq!(read_active(&world, "/doc.af"), b"replicated");
        assert_eq!(world.telemetry().cluster().snapshot().read_failovers, 2);
    }

    #[test]
    fn remote_file_writeback_to_a_fleet_is_refused_and_the_copies_stay_in_step() {
        use afs_winapi::{Access, Disposition, FileApi};
        let world = test_world();
        let servers = crate::test_fleet(&world);
        let writer = afs_remote::FileClient::new(world.net().endpoint(["fleet"]));
        writer.put("/shared/doc", 0, b"replicated").expect("put");
        for (path, sentinel) in [("/doc.af", "remote-file"), ("/m.af", "mirror")] {
            world
                .install_active_file(
                    path,
                    &SentinelSpec::new(sentinel, Strategy::DllOnly)
                        .backing(Backing::Memory)
                        .with("service", "fleet")
                        .with("remote", "/shared/doc"),
                )
                .expect("install");
        }
        let copies = || {
            let owners = writer.owners("/shared/doc");
            let server =
                |name: &str| &servers[name["files-".len()..].parse::<usize>().expect("member")];
            let path = afs_vfs::VPath::parse("/shared/doc").expect("path");
            owners
                .iter()
                .map(|owner| {
                    let server = server(owner);
                    let bytes = server.vfs().read_stream_to_end(&path).expect("copy");
                    (server.version("/shared/doc"), bytes)
                })
                .collect::<Vec<_>>()
        };
        let api = world.api();
        let h = api
            .create_file("/doc.af", Access::read_write(), Disposition::OpenExisting)
            .expect("open");
        api.write_file(h, b"EDITED").expect("write");
        // The writeback replaces the file on one copy only, so it fails
        // the close instead of leaving the other a version behind.
        assert!(api.close_handle(h).is_err(), "writeback over two copies");
        assert_eq!(copies(), vec![(1, b"replicated".to_vec()); 2]);
        // A write the copies sequence still reaches both, at one version.
        write_active(&world, "/m.af", b"MIRROR");
        assert_eq!(copies(), vec![(2, b"MIRRORated".to_vec()); 2]);
    }

    #[test]
    fn remote_file_fetches_and_writes_back() {
        let world = test_world();
        let server = FileServer::new();
        server.seed("/pub/data.txt", b"remote original");
        world
            .net()
            .register("files", Arc::clone(&server) as Arc<dyn Service>);
        world
            .install_active_file(
                "/local.af",
                &SentinelSpec::new("remote-file", Strategy::ProcessControl)
                    .backing(Backing::Disk)
                    .with("service", "files")
                    .with("remote", "/pub/data.txt"),
            )
            .expect("install");
        assert_eq!(read_active(&world, "/local.af"), b"remote original");
        // Writing through the active file propagates on close.
        write_active(&world, "/local.af", b"edited locally!");
        let client = afs_remote::FileClient::new(world.net().endpoint(["files"]));
        assert_eq!(
            client.get_all("/pub/data.txt").expect("get"),
            b"edited locally!"
        );
    }

    #[test]
    fn remote_file_tracks_source_changes_across_opens() {
        let world = test_world();
        let server = FileServer::new();
        server.seed("/doc", b"v1");
        world
            .net()
            .register("files", Arc::clone(&server) as Arc<dyn Service>);
        world
            .install_active_file(
                "/doc.af",
                &SentinelSpec::new("remote-file", Strategy::DllOnly)
                    .backing(Backing::Memory)
                    .with("service", "files")
                    .with("remote", "/doc"),
            )
            .expect("install");
        assert_eq!(read_active(&world, "/doc.af"), b"v1");
        // The source changes behind the intermediary's back; the next open
        // sees it — the capability §1 says static aggregation lacks.
        server.seed("/doc", b"v2 fresh");
        assert_eq!(read_active(&world, "/doc.af"), b"v2 fresh");
    }

    #[test]
    fn merge_concatenates_remote_files_with_separator() {
        let world = test_world();
        let server = FileServer::new();
        server.seed("/parts/a", b"alpha");
        server.seed("/parts/b", b"beta");
        server.seed("/parts/c", b"gamma");
        world
            .net()
            .register("files", Arc::clone(&server) as Arc<dyn Service>);
        world
            .install_active_file(
                "/all.af",
                &SentinelSpec::new("merge", Strategy::DllThread)
                    .backing(Backing::Memory)
                    .with("service", "files")
                    .with("remotes", "/parts/a, /parts/b, /parts/c")
                    .with("separator", "\n--\n"),
            )
            .expect("install");
        assert_eq!(
            read_active(&world, "/all.af"),
            b"alpha\n--\nbeta\n--\ngamma"
        );
    }

    #[test]
    fn inbox_aggregates_multiple_pop_servers() {
        let world = test_world();
        let store1 = MailStore::new();
        let store2 = MailStore::new();
        store1.deliver("alice@a", "me@here", "first", "body one");
        store2.deliver("bob@b", "me@here", "second", "body two");
        world
            .net()
            .register("pop1", PopServer::new(store1.clone()) as Arc<dyn Service>);
        world
            .net()
            .register("pop2", PopServer::new(store2.clone()) as Arc<dyn Service>);
        world
            .install_active_file(
                "/inbox.af",
                &SentinelSpec::new("inbox", Strategy::ProcessControl)
                    .backing(Backing::Memory)
                    .with("servers", "pop1, pop2")
                    .with("user", "me@here"),
            )
            .expect("install");
        let text = String::from_utf8(read_active(&world, "/inbox.af")).expect("utf8");
        assert!(text.contains("From: alice@a"));
        assert!(text.contains("Subject: second"));
        assert!(text.contains("body two"));
        // delete=false keeps messages on the servers.
        assert_eq!(store1.count("me@here"), 1);
    }

    #[test]
    fn inbox_delete_drains_servers() {
        let world = test_world();
        let store = MailStore::new();
        store.deliver("x@y", "me@here", "s", "b");
        world
            .net()
            .register("pop", PopServer::new(store.clone()) as Arc<dyn Service>);
        world
            .install_active_file(
                "/inbox.af",
                &SentinelSpec::new("inbox", Strategy::DllOnly)
                    .backing(Backing::Memory)
                    .with("servers", "pop")
                    .with("user", "me@here")
                    .with("delete", "true"),
            )
            .expect("install");
        let _ = read_active(&world, "/inbox.af");
        assert_eq!(store.count("me@here"), 0, "retrieval drained the mailbox");
    }

    #[test]
    fn stock_ticker_renders_quotes_and_refreshes_per_open() {
        let world = test_world();
        let server = QuoteServer::new(11, &["ACME", "INIT"]);
        world
            .net()
            .register("quotes", Arc::clone(&server) as Arc<dyn Service>);
        world
            .install_active_file(
                "/stocks.af",
                &SentinelSpec::new("stock-ticker", Strategy::DllThread)
                    .backing(Backing::Memory)
                    .with("service", "quotes")
                    .with("symbols", "ACME, INIT"),
            )
            .expect("install");
        let first = String::from_utf8(read_active(&world, "/stocks.af")).expect("utf8");
        assert!(first.starts_with("ACME\t"));
        assert_eq!(first.lines().count(), 2);
        // Market moves; a fresh open downloads the latest quotes.
        for _ in 0..10 {
            server.advance();
        }
        let second = String::from_utf8(read_active(&world, "/stocks.af")).expect("utf8");
        assert_ne!(
            first, second,
            "file reflects the latest stock quotes on every open"
        );
    }

    #[test]
    fn registry_file_round_trips_edits() {
        let world = test_world();
        let server = RegistryServer::new();
        server.set("HKLM/Soft/App", "theme", RegistryValue::Str("dark".into()));
        server.set("HKLM/Soft/App", "volume", RegistryValue::U32(7));
        world
            .net()
            .register("registry", Arc::clone(&server) as Arc<dyn Service>);
        world
            .install_active_file(
                "/config.af",
                &SentinelSpec::new("registry-file", Strategy::DllOnly)
                    .with("service", "registry")
                    .with("key", "HKLM/Soft/App"),
            )
            .expect("install");
        let text = String::from_utf8(read_active(&world, "/config.af")).expect("utf8");
        assert_eq!(text, "theme=dark\nvolume=7\n");

        // Edit through the file interface: change theme, drop volume, add
        // a new value — like editing an INI file.
        {
            use afs_winapi::{Access, Disposition, FileApi};
            let api = world.api();
            let h = api
                .create_file(
                    "/config.af",
                    Access::read_write(),
                    Disposition::OpenExisting,
                )
                .expect("open");
            // Overwrite the whole view.
            let new_text = b"lang=en\ntheme=light\n";
            api.write_file(h, new_text).expect("write");
            api.set_end_of_file(h).err(); // not supported on active: ignore
            api.close_handle(h).expect("close applies the diff");
        }
        assert_eq!(
            server.get("HKLM/Soft/App", "theme"),
            Some(RegistryValue::Str("light".into()))
        );
        assert_eq!(
            server.get("HKLM/Soft/App", "lang"),
            Some(RegistryValue::Str("en".into()))
        );
        assert_eq!(
            server.get("HKLM/Soft/App", "volume"),
            None,
            "removed line deletes the value"
        );
    }

    #[test]
    fn table_upserts_and_queries() {
        let world = test_world();
        world
            .install_active_file(
                "/quotes.tbl",
                &SentinelSpec::new("table", Strategy::DllOnly)
                    .backing(Backing::Memory)
                    .with("schema", "sym, price, qty"),
            )
            .expect("install");
        write_active(&world, "/quotes.tbl", b"ACME,110,5\nINIT,90,2\n");
        // Upsert: same primary key replaces the row.
        write_active(&world, "/quotes.tbl", b"ACME,120,7\n");
        let text = String::from_utf8(read_active(&world, "/quotes.tbl")).expect("utf8");
        assert_eq!(text, "sym\tprice\tqty\nACME\t120\t7\nINIT\t90\t2\n");

        use afs_winapi::{Access, Disposition, FileApi};
        let api = world.api();
        let h = api
            .create_file(
                "/quotes.tbl",
                Access::read_write(),
                Disposition::OpenExisting,
            )
            .expect("open");
        // Pragma lane: schema introspection, ad-hoc query, counting.
        let schema = api
            .device_io_control(h, CTL_SQL_SCHEMA, b"")
            .expect("schema");
        assert_eq!(schema, b"sym,price,qty");
        let result = api
            .device_io_control(h, CTL_SQL_QUERY, b"select sym,price where price > 100")
            .expect("query");
        assert_eq!(result, b"sym\tprice\nACME\t120\n");
        let n = api
            .device_io_control(h, CTL_SQL_COUNT, b"qty >= 2")
            .expect("count");
        assert_eq!(n, b"2");
        // The installed query shapes plain reads on this handle too.
        let mut buf = [0u8; 64];
        let read = api.read_file(h, &mut buf).expect("read");
        assert_eq!(&buf[..read], b"sym\tprice\nACME\t120\n");
        api.close_handle(h).expect("close");
    }

    #[test]
    fn table_rejects_bad_queries_and_schema_changes() {
        let world = test_world();
        world
            .install_active_file(
                "/t.tbl",
                &SentinelSpec::new("table", Strategy::DllOnly)
                    .backing(Backing::Memory)
                    .with("schema", "k,v"),
            )
            .expect("install");
        write_active(&world, "/t.tbl", b"a,1\n");
        use afs_winapi::{Access, Disposition, FileApi, Win32Error};
        let api = world.api();
        let h = api
            .create_file("/t.tbl", Access::read_write(), Disposition::OpenExisting)
            .expect("open");
        assert_eq!(
            api.device_io_control(h, CTL_SQL_QUERY, b"drop table students"),
            Err(Win32Error::InvalidParameter),
            "non-select statements are rejected"
        );
        assert_eq!(
            api.device_io_control(h, CTL_SQL_QUERY, b"select nope"),
            Err(Win32Error::InvalidParameter),
            "unknown projection column is rejected"
        );
        assert_eq!(
            api.device_io_control(h, CTL_SQL_SCHEMA, b"a,b,c"),
            Err(Win32Error::InvalidParameter),
            "schema of a non-empty table cannot change"
        );
        api.close_handle(h).expect("close");
    }

    #[test]
    fn table_survives_reopen_durably_with_checkpoint_pragma() {
        use afs_core::CTL_STORE_CHECKPOINT;
        use afs_winapi::{Access, Disposition, FileApi};
        let vfs = Arc::new(afs_vfs::Vfs::new());
        let spec = SentinelSpec::new("table", Strategy::DllOnly)
            .backing(Backing::Disk)
            .with("schema", "host,state")
            .with("durable", "on")
            .with("sync", "commit");
        {
            let world = afs_core::AfsWorld::builder().vfs(Arc::clone(&vfs)).build();
            crate::register_all(world.sentinels());
            world
                .install_active_file("/fleet.tbl", &spec)
                .expect("install");
            write_active(&world, "/fleet.tbl", b"web1,up\nweb2,down\n");
            // Runtime pragma: checkpoint the WAL into the pages area.
            let api = world.api();
            let h = api
                .create_file(
                    "/fleet.tbl",
                    Access::read_write(),
                    Disposition::OpenExisting,
                )
                .expect("open");
            let reply = api
                .device_io_control(h, CTL_STORE_CHECKPOINT, b"")
                .expect("checkpoint");
            let text = String::from_utf8(reply).expect("utf8");
            assert!(text.contains("pages_written="), "{text}");
            api.close_handle(h).expect("close");
        }
        // The world (all sentinels, caches, handles) is gone; only the
        // disk remains. A new world over the same vfs recovers the table.
        let world = afs_core::AfsWorld::builder().vfs(vfs).build();
        crate::register_all(world.sentinels());
        write_active(&world, "/fleet.tbl", b"web2,up\n");
        let text = String::from_utf8(read_active(&world, "/fleet.tbl")).expect("utf8");
        assert_eq!(text, "host\tstate\nweb1\tup\nweb2\tup\n");
    }

    #[test]
    fn aggregators_reject_writes() {
        let world = test_world();
        let server = FileServer::new();
        server.seed("/a", b"x");
        world
            .net()
            .register("files", Arc::clone(&server) as Arc<dyn Service>);
        world
            .install_active_file(
                "/m.af",
                &SentinelSpec::new("merge", Strategy::DllOnly)
                    .backing(Backing::Memory)
                    .with("service", "files")
                    .with("remotes", "/a"),
            )
            .expect("install");
        use afs_winapi::{Access, Disposition, FileApi, Win32Error};
        let api = world.api();
        let h = api
            .create_file("/m.af", Access::read_write(), Disposition::OpenExisting)
            .expect("open");
        assert_eq!(api.write_file(h, b"no"), Err(Win32Error::NotSupported));
        api.close_handle(h).expect("close");
    }
}
