//! The traced per-layer replay. A [`Replay`] mirrors the server's state
//! (repository, bounded view cache, patch bookkeeping, decision and
//! compiled-policy caches) and re-executes each request through the same
//! sequence of public calls the server makes, timing each call as a span.
//! The sequence follows `SecureServer::handle_cancellable` /
//! `update_cancellable` and the epoll front end (a cache-only probe on
//! the loop thread, then a second probe and the pipeline on a worker).

use crate::world::{Client, World};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xmlsec_authz::{Action, Authorization, PolicyConfig};
use xmlsec_core::{
    apply_updates, apply_updates_preauthorized, classify_batch, label_document_engine,
    label_document_incremental, label_for_write_engine, prune_document, BatchVerdict, CancelToken,
    CompiledCache, DecisionCache, EngineOptions, Labeling, Parallelism, ResourceLimits, UpdateOp,
    WriteContext,
};
use xmlsec_dtd::{loosen, normalize, parse_dtd, serialize_dtd, validate, Dtd, Validator};
use xmlsec_server::cache::fingerprint;
use xmlsec_server::repo::ParsedDocument;
use xmlsec_server::{fnv1a64, CachedView, Repository, ViewCache, ViewKey};
use xmlsec_subjects::Requester;
use xmlsec_xml::{parse_cancellable, serialize, ParseOptions, SerializeOptions};

/// One recorded span. Parent links are logical: the twin call and the
/// layer replay run after the HTTP round trip they explain.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
    pub req: u64,
}

/// In-memory span recorder. While off it records nothing, but the
/// replay still runs so its state keeps following the server.
#[derive(Default)]
pub struct Tracer {
    pub spans: Vec<Span>,
    pub on: bool,
    pub req: u64,
    pub parent: Option<usize>,
}

impl Tracer {
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        self.spans.push(Span { name, start, end, parent, req: self.req });
        Some(self.spans.len() - 1)
    }

    /// Closes a leaf layer span opened at `start` under the current parent.
    fn leaf(&mut self, name: &'static str, start: Instant) {
        let parent = self.parent;
        self.record(name, start, Instant::now(), parent);
    }
}

/// Counters the replay gathers alongside its spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayStats {
    pub parse_bytes: u64,
    pub labeled: u64,
    pub granted: u64,
    /// Requests whose hit/miss, entity tag or commit outcome differed
    /// from the twin server's: the replay no longer follows the server's
    /// path.
    pub divergent: u64,
}

struct PatchEntry {
    requester: Requester,
    prev: Option<Arc<Labeling>>,
}

pub struct Replay<'w> {
    world: &'w World,
    repo: Repository,
    cache: ViewCache,
    patch: HashMap<ViewKey, PatchEntry>,
    decisions: DecisionCache,
    compiled: CompiledCache,
    limits: ResourceLimits,
    policy: PolicyConfig,
    pub stats: ReplayStats,
}

/// The request deadline the epoll front end arms (its default ceiling).
fn token() -> CancelToken {
    CancelToken::with_timeout(Duration::from_secs(10))
}

/// The server's entity tag: FNV-1a over the cache key and the bytes.
fn etag_for(key: &ViewKey, xml: &str, loosened: Option<&str>) -> String {
    let dtd = loosened.unwrap_or("");
    let mut buf = Vec::with_capacity(24 + key.uri.len() + xml.len() + dtd.len());
    buf.extend_from_slice(&key.fingerprint.to_le_bytes());
    buf.extend_from_slice(&key.content.to_le_bytes());
    buf.extend_from_slice(key.uri.as_bytes());
    buf.push(0);
    buf.extend_from_slice(xml.as_bytes());
    buf.push(0);
    buf.extend_from_slice(dtd.as_bytes());
    format!("{:016x}", fnv1a64(&buf))
}

impl<'w> Replay<'w> {
    pub fn new(world: &'w World) -> Replay<'w> {
        let mut repo = Repository::new();
        repo.put_dtd(
            xmlsec_workload::laboratory::LAB_DTD_URI,
            xmlsec_workload::laboratory::LAB_DTD,
        );
        repo.put_dtd(
            xmlsec_workload::hospital::HOSPITAL_DTD_URI,
            xmlsec_workload::hospital::HOSPITAL_DTD,
        );
        for d in &world.docs {
            repo.put_document(&d.uri, &d.xml, Some(d.dtd_uri));
        }
        Replay {
            world,
            repo,
            cache: world.cache_capacity.map(ViewCache::with_capacity).unwrap_or_default(),
            patch: HashMap::new(),
            decisions: DecisionCache::new(),
            compiled: CompiledCache::new(),
            limits: ResourceLimits::default(),
            policy: PolicyConfig::paper_default(),
            stats: ReplayStats::default(),
        }
    }

    fn requester(client: &Client) -> Requester {
        Requester::new(&client.user, client.ip, client.sym).expect("valid requester")
    }

    fn dtd(&self, uri: &str) -> Option<Dtd> {
        let dtd_uri = self.repo.document(uri)?.dtd_uri.clone()?;
        parse_dtd(self.repo.dtd(&dtd_uri)?).ok()
    }

    /// The request prologue: requester, applicable sets, fingerprint,
    /// cache lookup. Returns the key and, on a hit, the cached entity tag.
    fn probe(
        &mut self,
        tr: &mut Tracer,
        client: &Client,
        uri: &str,
    ) -> (Requester, ViewKey, Option<String>) {
        let world = self.world;
        let t = Instant::now();
        let requester = Self::requester(client);
        let covered = |u: &str| -> Vec<&'w Authorization> {
            world
                .base
                .for_uri(u)
                .iter()
                .filter(|a| requester.is_covered_by(&a.subject, &world.dir))
                .collect()
        };
        let instance = covered(uri);
        let schema = self
            .repo
            .document(uri)
            .and_then(|s| s.dtd_uri.as_deref())
            .map(covered)
            .unwrap_or_default();
        tr.leaf("authz.applicable", t);
        let t = Instant::now();
        // Policy tag 0: most-specific-then-denials, closed.
        let fp = fingerprint(&instance, &schema, 0);
        tr.leaf("server.fingerprint", t);
        let t = Instant::now();
        let key = ViewKey {
            uri: uri.to_string(),
            fingerprint: fp,
            content: self.repo.content_hash(uri).unwrap_or(0),
        };
        let etag = self.cache.get(&key).map(|v| v.etag);
        tr.leaf("server.cache", t);
        (requester, key, etag)
    }

    /// Replays one `GET`. `twin_hit` is what the twin server answered
    /// from (its cache or the pipeline) and `twin_etag` the entity tag it
    /// returned; either differing from the replay's counts as divergent.
    pub fn read(
        &mut self,
        tr: &mut Tracer,
        client: &Client,
        doc: usize,
        twin_hit: bool,
        twin_etag: Option<&str>,
    ) {
        let uri = self.world.docs[doc].uri.clone();
        // Loop thread: cache-only probe; on a miss the worker probes again.
        let (_, _, first) = self.probe(tr, client, &uri);
        let hit = first.is_some();
        let etag = match first {
            Some(etag) => etag,
            None => match self.probe(tr, client, &uri) {
                (_, _, Some(etag)) => etag,
                (requester, key, None) => self.compute(tr, requester, key),
            },
        };
        if hit != twin_hit || twin_etag != Some(etag.as_str()) {
            self.stats.divergent += 1;
        }
    }

    /// The cache-miss pipeline (`SecurityProcessor::process` as the
    /// server configures it) plus the cache insert. Returns the entity tag.
    fn compute(&mut self, tr: &mut Tracer, requester: Requester, key: ViewKey) -> String {
        let world = self.world;
        let (dir, policy) = (&world.dir, self.policy);
        let cancel = token();
        let stored = self.repo.document(&key.uri).expect("stored document");
        let dtd_uri = stored.dtd_uri.clone();
        let t = Instant::now();
        let mut doc = parse_cancellable(
            &stored.xml,
            ParseOptions::default(),
            &self.limits.xml,
            Some(&cancel),
        )
        .expect("stored document parses");
        tr.leaf("xml.parse", t);
        if tr.on {
            self.stats.parse_bytes += stored.xml.len() as u64;
        }
        let t = Instant::now();
        let dtd = self.dtd(&key.uri).expect("stored DTD parses");
        tr.leaf("dtd.parse", t);
        let t = Instant::now();
        normalize(&dtd, &mut doc);
        tr.leaf("dtd.normalize", t);
        let t = Instant::now();
        let axml = world.base.applicable_for_action(&key.uri, &requester, dir, Action::Read);
        let adtd = dtd_uri
            .as_deref()
            .map(|u| world.base.applicable_for_action(u, &requester, dir, Action::Read))
            .unwrap_or_default();
        tr.leaf("authz.applicable", t);
        let t = Instant::now();
        let valid = Validator::new(&dtd).validate(&doc).is_empty();
        tr.leaf("dtd.validate", t);
        let t = Instant::now();
        let compiled = doc.element_name(doc.root()).filter(|_| valid).and_then(|root| {
            self.compiled.get_or_compile(&dtd, root, &axml, &adtd, dir, policy).ok()
        });
        tr.leaf("core.compile", t);
        let t = Instant::now();
        let engine = EngineOptions {
            limits: self.limits.xpath,
            parallelism: Parallelism::sequential(),
            decisions: Some(&self.decisions),
            compiled: compiled.as_deref(),
            cancel: Some(&cancel),
        };
        let labeling = label_document_engine(&doc, &axml, &adtd, dir, policy, &engine)
            .expect("labeling succeeds");
        tr.leaf("core.label", t);
        if tr.on {
            self.stats.labeled += labeling.stats.labeled_nodes as u64;
            self.stats.granted += labeling.stats.granted_nodes as u64;
        }
        let t = Instant::now();
        let mut view = doc.clone();
        prune_document(&mut view, &labeling, policy);
        tr.leaf("core.prune", t);
        let t = Instant::now();
        let loosened = serialize_dtd(&loosen(&dtd));
        tr.leaf("dtd.loosen", t);
        let t = Instant::now();
        let xml = serialize(&view, &SerializeOptions::canonical());
        tr.leaf("xml.serialize", t);
        let t = Instant::now();
        let etag = etag_for(&key, &xml, Some(&loosened));
        tr.leaf("server.etag", t);
        let t = Instant::now();
        self.cache
            .put(key.clone(), CachedView { xml, loosened_dtd: Some(loosened), etag: etag.clone() });
        self.patch.insert(key, PatchEntry { requester, prev: None });
        tr.leaf("server.cache", t);
        etag
    }

    /// Replays one update batch; `twin_committed` is the twin server's
    /// outcome.
    pub fn write(
        &mut self,
        tr: &mut Tracer,
        client: &Client,
        doc: usize,
        ops: &[UpdateOp],
        twin_committed: bool,
    ) {
        let uri = self.world.docs[doc].uri.clone();
        let committed = self.write_inner(tr, client, &uri, ops, twin_committed);
        if committed != twin_committed {
            self.stats.divergent += 1;
        }
    }

    fn write_inner(
        &mut self,
        tr: &mut Tracer,
        client: &Client,
        uri: &str,
        ops: &[UpdateOp],
        twin_committed: bool,
    ) -> bool {
        let world = self.world;
        let (dir, policy) = (&world.dir, self.policy);
        let cancel = token();
        let t = Instant::now();
        let requester = Self::requester(client);
        tr.leaf("authz.applicable", t);
        let dtd_uri = self.repo.document(uri).and_then(|s| s.dtd_uri.clone());
        let t = Instant::now();
        let Some(dtd) = self.dtd(uri) else { return false };
        tr.leaf("dtd.parse", t);
        if self.repo.parsed_document(uri).is_none() {
            let xml = self.repo.document(uri).map(|s| s.xml.clone()).unwrap_or_default();
            let t = Instant::now();
            let mut doc =
                parse_cancellable(&xml, ParseOptions::default(), &self.limits.xml, Some(&cancel))
                    .expect("stored document parses");
            tr.leaf("xml.parse", t);
            if tr.on {
                self.stats.parse_bytes += xml.len() as u64;
            }
            let t = Instant::now();
            normalize(&dtd, &mut doc);
            tr.leaf("dtd.normalize", t);
            self.repo.store_parsed(uri, ParsedDocument::new(doc));
        }
        let t = Instant::now();
        let wxml = world.base.applicable_for_action(uri, &requester, dir, Action::Write);
        let wdtd = dtd_uri
            .as_deref()
            .map(|u| world.base.applicable_for_action(u, &requester, dir, Action::Write))
            .unwrap_or_default();
        tr.leaf("authz.applicable", t);
        let root = self
            .repo
            .parsed_document(uri)
            .and_then(|p| p.doc().element_name(p.doc().root()))
            .map(str::to_string)
            .unwrap_or_default();
        let t = Instant::now();
        let compiled = self.compiled.get_or_compile(&dtd, &root, &wxml, &wdtd, dir, policy).ok();
        tr.leaf("core.compile", t);
        let verdict = match compiled {
            Some(cp) if cp.writes.blanket_allow => BatchVerdict::Allow,
            Some(cp) => {
                let memo = self.repo.parsed_document(uri).and_then(ParsedDocument::schema_valid);
                let valid = memo.unwrap_or_else(|| {
                    let t = Instant::now();
                    let parsed = self.repo.parsed_document(uri).expect("parsed above");
                    let v = validate(&dtd, parsed.doc()).is_empty();
                    tr.leaf("dtd.validate", t);
                    v
                });
                if let Some(p) = self.repo.parsed_document_mut(uri) {
                    p.set_schema_valid(valid);
                }
                if valid {
                    let t = Instant::now();
                    let v = classify_batch(&dtd, &cp.writes, ops);
                    tr.leaf("core.preflight", t);
                    v
                } else {
                    BatchVerdict::Dynamic
                }
            }
            None => BatchVerdict::Dynamic,
        };
        if let BatchVerdict::Deny { .. } = verdict {
            return false;
        }
        let t = Instant::now();
        let mut doc = self.repo.parsed_document(uri).expect("parsed above").doc().clone();
        tr.leaf("xml.clone", t);
        let opts = EngineOptions::sequential(self.limits.xpath).with_cancel(&cancel);
        let mut dirty = Vec::new();
        if matches!(verdict, BatchVerdict::Allow) {
            let t = Instant::now();
            let out = apply_updates_preauthorized(&mut doc, ops, Some(&cancel));
            tr.leaf("core.apply", t);
            match out {
                Ok(o) => dirty = o.dirty,
                Err(_) => return false,
            }
        } else if !twin_committed {
            // A dynamic denial: the whole labeled batch, as the server runs it.
            let ctx = WriteContext { axml: &wxml, adtd: &wdtd, dir, policy, opts };
            let t = Instant::now();
            let _ = apply_updates(&mut doc, ops, &ctx);
            tr.leaf("core.write_label", t);
            return false;
        } else {
            // `apply_updates` relabels before every op; split the two.
            for op in ops {
                let t = Instant::now();
                let _ = label_for_write_engine(&doc, &wxml, &wdtd, dir, policy, &opts);
                tr.leaf("core.write_label", t);
                let t = Instant::now();
                let out =
                    apply_updates_preauthorized(&mut doc, std::slice::from_ref(op), Some(&cancel));
                tr.leaf("core.apply", t);
                match out {
                    Ok(o) => dirty.extend(o.dirty),
                    Err(_) => return false,
                }
            }
        }
        let t = Instant::now();
        normalize(&dtd, &mut doc);
        tr.leaf("dtd.normalize", t);
        let t = Instant::now();
        let valid = validate(&dtd, &doc).is_empty();
        tr.leaf("dtd.validate", t);
        if !valid {
            return false;
        }
        let t = Instant::now();
        self.repo.commit_update(uri, doc, &dirty);
        tr.leaf("server.commit", t);
        if let Some(p) = self.repo.parsed_document_mut(uri) {
            p.set_schema_valid(true);
        }
        self.patch_views(tr, uri, &dtd, dtd_uri.as_deref(), &opts);
        true
    }

    /// `SecureServer::patch_views` + `patch_one` + `prune_patch_state`.
    fn patch_views(
        &mut self,
        tr: &mut Tracer,
        uri: &str,
        dtd: &Dtd,
        dtd_uri: Option<&str>,
        opts: &EngineOptions,
    ) {
        let world = self.world;
        let (dir, policy) = (&world.dir, self.policy);
        let t = Instant::now();
        let new_content = self.repo.content_hash(uri).unwrap_or(0);
        let old_keys: Vec<ViewKey> = self
            .cache
            .keys_for_uri(uri)
            .into_iter()
            .filter(|k| k.content != new_content)
            .collect();
        tr.leaf("server.cache", t);
        if !old_keys.is_empty() {
            let t = Instant::now();
            let loosened = serialize_dtd(&loosen(dtd));
            tr.leaf("dtd.loosen", t);
            let doc = self.repo.parsed_document(uri).expect("committed above").doc();
            for old_key in old_keys {
                let Some(PatchEntry { requester, prev }) = self.patch.remove(&old_key) else {
                    let t = Instant::now();
                    self.cache.remove(&old_key);
                    tr.leaf("server.cache", t);
                    continue;
                };
                let t = Instant::now();
                let axml = world.base.applicable_for_action(uri, &requester, dir, Action::Read);
                let adtd = dtd_uri
                    .map(|u| world.base.applicable_for_action(u, &requester, dir, Action::Read))
                    .unwrap_or_default();
                tr.leaf("authz.applicable", t);
                let t = Instant::now();
                let labeling = label_document_incremental(
                    doc,
                    &axml,
                    &adtd,
                    dir,
                    policy,
                    opts,
                    prev.as_deref(),
                );
                let Ok(labeling) = labeling else {
                    self.cache.remove(&old_key);
                    continue;
                };
                let mut view = doc.clone();
                prune_document(&mut view, &labeling, policy);
                let xml = serialize(&view, &SerializeOptions::canonical());
                tr.leaf("core.patch", t);
                let t = Instant::now();
                let new_key = ViewKey {
                    uri: uri.to_string(),
                    fingerprint: old_key.fingerprint,
                    content: new_content,
                };
                let etag = etag_for(&new_key, &xml, Some(&loosened));
                tr.leaf("server.etag", t);
                let t = Instant::now();
                let view = CachedView { xml, loosened_dtd: Some(loosened.clone()), etag };
                if self.cache.replace(&old_key, new_key.clone(), view) {
                    self.patch
                        .insert(new_key, PatchEntry { requester, prev: Some(Arc::new(labeling)) });
                }
                tr.leaf("server.cache", t);
            }
        }
        let t = Instant::now();
        let cache = &self.cache;
        self.patch.retain(|k, _| cache.contains_key(k));
        tr.leaf("server.cache", t);
    }
}

/// Per-op-type totals of the traced requests.
#[derive(Debug, Default)]
pub struct Breakdown {
    pub ops: u64,
    pub e2e: Duration,
    /// The twin's in-process call (`server.handle` / `server.update`).
    pub inner: Duration,
    /// Self time per layer span name.
    pub layers: BTreeMap<&'static str, Duration>,
}

impl Breakdown {
    /// HTTP round trip minus the twin's in-process call, in ms (signed).
    pub fn transport_ms(&self) -> f64 {
        self.e2e.as_secs_f64() * 1e3 - self.inner.as_secs_f64() * 1e3
    }

    /// Signed milliseconds of `inner` not covered by any layer span.
    pub fn unattributed_ms(&self) -> f64 {
        let covered: Duration = self.layers.values().sum();
        self.inner.as_secs_f64() * 1e3 - covered.as_secs_f64() * 1e3
    }
}

/// Folds recorded spans into per-op-type breakdowns, keyed by the root
/// span's name (`http.read` / `http.write`).
pub fn breakdown(spans: &[Span]) -> BTreeMap<&'static str, Breakdown> {
    let mut out: BTreeMap<&'static str, Breakdown> = BTreeMap::new();
    let root_of = |mut i: usize| {
        while let Some(p) = spans[i].parent {
            i = p;
        }
        i
    };
    for (i, s) in spans.iter().enumerate() {
        let d = s.end.saturating_duration_since(s.start);
        let op = spans[root_of(i)].name;
        let b = out.entry(op).or_default();
        match s.parent {
            None => {
                b.ops += 1;
                b.e2e += d;
            }
            Some(p) if spans[p].parent.is_none() => b.inner += d,
            Some(_) => *b.layers.entry(s.name).or_default() += d,
        }
    }
    out
}
