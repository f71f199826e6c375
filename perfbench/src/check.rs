//! Output checks against a cache-less oracle server: every `200` body,
//! every `304`'s entity tag and every write outcome is compared with what
//! `SecureServer::without_cache()` produces for the same requester and
//! document version.

use crate::world::{Expect, World, WriteOp};
use std::collections::{HashMap, HashSet};
use std::time::Instant;
use xmlsec_server::{parse_update_ops, SecureServer, ServerError, ServerResponse};

/// FNV-1a over response bytes.
pub fn hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The body the HTTP front end sends for a view (see `render_view`).
pub fn wire_body(resp: &ServerResponse) -> Vec<u8> {
    let mut body = resp.xml.clone().into_bytes();
    body.push(b'\n');
    if let Some(dtd) = &resp.loosened_dtd {
        body.extend_from_slice(b"<!-- loosened DTD -->\n");
        body.extend_from_slice(dtd.as_bytes());
    }
    body
}

/// What a reader must receive for one document version.
#[derive(Debug, Clone)]
pub struct Expected {
    pub body: Vec<u8>,
    pub etag: String,
}

/// One observed read, kept for the version-window check.
#[derive(Debug, Clone)]
pub struct ReadRecord {
    pub doc: usize,
    pub reader: usize,
    pub sent: Instant,
    pub done: Instant,
    pub status: u16,
    pub body_hash: u64,
    pub etag: Option<String>,
    /// Whether the request carried `If-None-Match`.
    pub revalidated: bool,
}

/// One observed write, in the order the single writer sent it.
#[derive(Debug, Clone)]
pub struct WriteRecord {
    pub op: WriteOp,
    pub sent: Instant,
    pub done: Instant,
    /// `None` when the connection failed.
    pub status: Option<u16>,
    pub body: String,
}

pub struct Oracle<'w> {
    world: &'w World,
    server: SecureServer,
    /// Committed batches per document.
    pub version: Vec<usize>,
}

impl<'w> Oracle<'w> {
    pub fn new(world: &'w World) -> Oracle<'w> {
        Oracle { world, server: world.server(false), version: vec![0; world.docs.len()] }
    }

    pub fn expected(&self, doc: usize, reader: &crate::world::Client) -> Result<Expected, String> {
        let resp = self
            .server
            .handle(&reader.request(&self.world.docs[doc].uri))
            .map_err(|e| format!("oracle read failed: {e}"))?;
        Ok(Expected { body: wire_body(&resp), etag: resp.etag })
    }

    /// The stored bytes of `doc` after every batch applied so far.
    pub fn stored(&self, doc: usize) -> String {
        let repo = self.server.repository();
        repo.document(&self.world.docs[doc].uri)
            .map(|d| d.xml.clone())
            .unwrap_or_default()
    }

    /// Applies one observed batch and compares outcomes. Returns whether
    /// the batch committed.
    pub fn apply(&mut self, rec: &WriteRecord) -> Result<bool, String> {
        let op = &rec.op;
        let client = if op.intruder { &self.world.intruder } else { &self.world.editor };
        let ops = parse_update_ops(&op.body).map_err(|e| format!("unparsable batch: {e}"))?;
        let got = self.server.update(&client.request(&self.world.docs[op.doc].uri), &ops);
        let status = rec.status.ok_or("write: connection error")?;
        match (&got, op.expect) {
            (Ok(touched), Expect::Commit) => {
                if status != 200 || rec.body != format!("updated {touched}\n") {
                    return Err(format!(
                        "write: server said {status} {:?}, oracle committed",
                        rec.body
                    ));
                }
                self.version[op.doc] += 1;
                Ok(true)
            }
            (Err(ServerError::UpdateDeniedStatic { .. }), Expect::StaticDeny) => {
                if status != 403 || !rec.body.starts_with("update denied: line ") {
                    return Err(format!(
                        "write: expected the static-deny 403, got {status} {:?}",
                        rec.body
                    ));
                }
                Ok(false)
            }
            (got, expect) => {
                Err(format!("write: oracle gave {got:?} for a batch designed as {expect:?}"))
            }
        }
    }
}

/// Checks a status/etag/body triple against an expectation. `revalidated`
/// says whether the request carried `If-None-Match`.
pub fn check_read(
    exp: &Expected,
    status: u16,
    etag: Option<&str>,
    body: &[u8],
    revalidated: bool,
) -> Result<(), String> {
    match status {
        200 if etag == Some(exp.etag.as_str()) && body == exp.body.as_slice() => Ok(()),
        200 => Err("200 body or ETag differs from the oracle's view".into()),
        304 if revalidated && etag == Some(exp.etag.as_str()) => Ok(()),
        304 => Err("304 names a stale or unexpected ETag".into()),
        s => Err(format!("unexpected status {s}")),
    }
}

/// Replays the committed write log on `oracle` and checks every read
/// against the views of the versions it may have observed: those
/// committed before it was sent up to those sent before it completed.
/// Returns the number of failed reads and writes, with a sample message.
pub fn check_log(
    oracle: &mut Oracle,
    writes: &[WriteRecord],
    reads: &[ReadRecord],
) -> (usize, usize, Option<String>) {
    let ndocs = oracle.version.len();
    let base: Vec<usize> = oracle.version.clone();
    // Commit times per document, assuming every Commit batch commits;
    // a batch that did not is a write failure reported below.
    let mut commits: Vec<Vec<(Instant, Instant)>> = vec![Vec::new(); ndocs];
    for w in writes.iter().filter(|w| w.op.expect == Expect::Commit && w.status == Some(200)) {
        commits[w.op.doc].push((w.sent, w.done));
    }
    let window = |r: &ReadRecord| {
        let c = &commits[r.doc];
        let lo = c.iter().filter(|(_, done)| *done < r.sent).count();
        let hi = c.iter().filter(|(sent, _)| *sent < r.done).count();
        (base[r.doc] + lo, base[r.doc] + hi)
    };
    // Readers of one policy class share every view: render one per class.
    let class = &oracle.world.class;
    let mut rep: HashMap<usize, usize> = HashMap::new();
    for (r, &c) in class.iter().enumerate() {
        rep.entry(c).or_insert(r);
    }
    let mut needed: HashMap<(usize, usize), HashSet<usize>> = HashMap::new();
    for r in reads {
        let (lo, hi) = window(r);
        for v in lo..=hi {
            needed.entry((r.doc, v)).or_default().insert(class[r.reader]);
        }
    }
    let mut table: HashMap<(usize, usize, usize), (u64, String)> = HashMap::new();
    let mut first_err = None;
    let render =
        |oracle: &Oracle, doc: usize, table: &mut HashMap<_, _>, err: &mut Option<String>| {
            let v = oracle.version[doc];
            for &c in needed.get(&(doc, v)).into_iter().flatten() {
                match oracle.expected(doc, &oracle.world.readers[rep[&c]]) {
                    Ok(e) => {
                        table.insert((doc, v, c), (hash(&e.body), e.etag));
                    }
                    Err(e) => {
                        err.get_or_insert(e);
                    }
                }
            }
        };
    for d in 0..ndocs {
        render(oracle, d, &mut table, &mut first_err);
    }
    let mut write_fail = 0;
    for w in writes {
        match oracle.apply(w) {
            Ok(true) => render(oracle, w.op.doc, &mut table, &mut first_err),
            Ok(false) => {}
            Err(e) => {
                write_fail += 1;
                first_err.get_or_insert(e);
            }
        }
    }
    let mut read_fail = 0;
    for r in reads {
        let (lo, hi) = window(r);
        let ok = (lo..=hi).any(|v| {
            table.get(&(r.doc, v, class[r.reader])).is_some_and(|(h, etag)| {
                let body_ok = match r.status {
                    200 => r.body_hash == *h,
                    304 => r.revalidated,
                    _ => false,
                };
                body_ok && r.etag.as_deref() == Some(etag.as_str())
            })
        });
        if !ok {
            read_fail += 1;
            first_err.get_or_insert_with(|| {
                format!(
                    "read of doc {} by reader {} (status {}) matches no version in {lo}..={hi}",
                    r.doc, r.reader, r.status
                )
            });
        }
    }
    (read_fail, write_fail, first_err)
}
