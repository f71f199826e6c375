//! The benchmark's inputs: corpora, directory, authorizations, the
//! requesters of each policy class, and the seeded operation generators.
//! Everything here is a pure function of the workload and the seed.

use xmlsec_authz::{Action, AuthType, Authorization, AuthorizationBase, ObjectSpec, Sign};
use xmlsec_server::{ClientRequest, SecureServer};
use xmlsec_subjects::{Directory, Subject};
use xmlsec_workload::hospital::{hospital_authorizations, HOSPITAL_DTD, HOSPITAL_DTD_URI};
use xmlsec_workload::laboratory::{LAB_DTD, LAB_DTD_URI};
use xmlsec_xml::{serialize, SerializeOptions};

/// Shared secret of every benchmark user.
pub const PASS: &str = "pw";

/// Capacity of the bounded view cache on `cold_read`.
pub const COLD_CACHE_CAPACITY: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WarmRead,
    ColdRead,
    ReadWrite,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "warm_read" => Some(Workload::WarmRead),
            "cold_read" => Some(Workload::ColdRead),
            "read_write" => Some(Workload::ReadWrite),
            _ => None,
        }
    }
}

/// A deterministic generator (SplitMix64): the benchmark's only source
/// of randomness, so one seed always yields the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F) ^ 0x5851_F42D_4C95_7F2D)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A user with its declared connection endpoints.
#[derive(Debug, Clone)]
pub struct Client {
    pub user: String,
    pub ip: &'static str,
    pub sym: &'static str,
}

impl Client {
    pub fn request(&self, uri: &str) -> ClientRequest {
        ClientRequest {
            user: Some((self.user.clone(), PASS.to_string())),
            ip: self.ip.to_string(),
            sym: self.sym.to_string(),
            uri: uri.to_string(),
        }
    }

    fn query(&self) -> String {
        format!("user={}&pass={PASS}&ip={}&host={}", self.user, self.ip, self.sym)
    }

    /// `GET` request bytes, optionally revalidating `etag`.
    pub fn get(&self, uri: &str, etag: Option<&str>) -> Vec<u8> {
        let inm = etag.map(|e| format!("If-None-Match: \"{e}\"\r\n")).unwrap_or_default();
        format!("GET /{uri}?{} HTTP/1.1\r\nHost: bench\r\n{inm}\r\n", self.query()).into_bytes()
    }

    /// `POST /update` request bytes carrying `body`.
    pub fn post(&self, uri: &str, body: &str) -> Vec<u8> {
        format!(
            "POST /update?doc={uri}&{} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            self.query(),
            body.len()
        )
        .into_bytes()
    }
}

/// One stored document.
#[derive(Debug, Clone)]
pub struct DocSpec {
    pub uri: String,
    pub dtd_uri: &'static str,
    pub xml: String,
    pub lab: bool,
    /// Projects (laboratory) or patients (ward).
    pub units: usize,
}

/// Laboratory policy classes: group, declared IP, declared host.
const LAB_CLASSES: [(&str, &str, &str); 4] = [
    ("Foreign", "130.100.50.8", "infosys.bld1.it"),
    ("Public", "150.100.30.8", "tweety.lab.com"),
    ("Admin", "130.89.56.8", "admin.lab.com"),
    ("Staff", "150.100.30.9", "desk.lab.com"),
];

/// Hospital policy classes (groups of `hospital_authorizations`).
const WARD_CLASSES: [(&str, &str, &str); 4] = [
    ("Nurses", "10.0.0.11", "ward.hospital.org"),
    ("Physicians", "10.0.0.12", "ward.hospital.org"),
    ("Psychiatrists", "10.0.0.13", "ward.hospital.org"),
    ("Administration", "10.0.0.14", "office.hospital.org"),
];

/// The complete input of one run.
pub struct World {
    pub workload: Workload,
    pub dir: Directory,
    pub base: AuthorizationBase,
    pub docs: Vec<DocSpec>,
    pub readers: Vec<Client>,
    /// Policy class of each reader: readers of one class share every view.
    pub class: Vec<usize>,
    /// Every `(document, reader)` pair a read may name.
    pub catalog: Vec<(usize, usize)>,
    /// The side document of the write probe on read-only workloads.
    pub probe_doc: Option<usize>,
    pub editor: Client,
    pub intruder: Client,
    pub auditor: Client,
    pub cache_capacity: Option<usize>,
}

fn auth(
    group: &str,
    ip: &str,
    sym: &str,
    uri: &str,
    path: &str,
    sign: Sign,
    ty: AuthType,
) -> Authorization {
    Authorization::new(
        Subject::new(group, ip, sym).expect("valid subject"),
        ObjectSpec::with_path(uri, path).expect("valid path"),
        sign,
        ty,
    )
}

/// The Example 1 policy of the paper, instantiated for one laboratory
/// document, plus the benchmark's staff, auditor and editor grants.
fn lab_doc_auths(uri: &str) -> Vec<Authorization> {
    use AuthType::*;
    use Sign::*;
    vec![
        auth(
            "Public",
            "*",
            "*",
            uri,
            r#"/laboratory//paper[./@category="public"]"#,
            Plus,
            RecursiveWeak,
        ),
        auth("Admin", "130.89.56.8", "*", uri, r#"project[./@type="internal"]"#, Plus, Recursive),
        auth(
            "Public",
            "*",
            "*.it",
            uri,
            r#"project[./@type="public"]/manager"#,
            Plus,
            RecursiveWeak,
        ),
        auth("Staff", "*", "*", uri, "/laboratory", Plus, Recursive),
        auth("Staff", "*", "*", uri, "//fund", Minus, Recursive),
        auth("Auditors", "*", "*", uri, "/laboratory", Plus, Recursive),
        auth("Editors", "*", "*", uri, "/laboratory", Plus, Recursive).with_action(Action::Write),
        auth("Editors", "*", "*", uri, "//fund", Minus, Recursive).with_action(Action::Write),
    ]
}

fn directory(lab_users: &[String], ward_users: &[(String, &str)]) -> Directory {
    let mut d = Directory::new();
    for g in [
        "Public",
        "Foreign",
        "Admin",
        "Staff",
        "Editors",
        "Auditors",
        "Nurses",
        "Physicians",
        "Psychiatrists",
        "Clinical",
        "Administration",
    ] {
        d.add_group(g).expect("fresh group");
    }
    d.add_member("Psychiatrists", "Physicians").expect("edge");
    d.add_member("Nurses", "Clinical").expect("edge");
    d.add_member("Physicians", "Clinical").expect("edge");
    for u in ["editor", "intruder", "auditor"] {
        d.add_user(u).expect("fresh user");
        d.add_member(u, "Public").expect("edge");
    }
    d.add_member("editor", "Editors").expect("edge");
    d.add_member("auditor", "Auditors").expect("edge");
    for (i, u) in lab_users.iter().enumerate() {
        d.add_user(u).expect("fresh user");
        d.add_member(u, "Public").expect("edge");
        let group = LAB_CLASSES[i % LAB_CLASSES.len()].0;
        if group != "Public" {
            d.add_member(u, group).expect("edge");
        }
    }
    for (u, group) in ward_users {
        d.add_user(u).expect("fresh user");
        d.add_member(u, group).expect("edge");
    }
    d
}

fn lab_doc(uri: String, projects: usize, seed: u64) -> DocSpec {
    let doc = xmlsec_workload::laboratory_scaled(projects, seed);
    let xml = serialize(&doc, &SerializeOptions::canonical());
    DocSpec { uri, dtd_uri: LAB_DTD_URI, xml, lab: true, units: projects }
}

fn ward_doc(uri: String, patients: usize, seed: u64) -> DocSpec {
    let doc = xmlsec_workload::hospital_scaled(patients, seed);
    DocSpec {
        uri,
        dtd_uri: HOSPITAL_DTD_URI,
        xml: serialize(&doc, &SerializeOptions::canonical()),
        lab: false,
        units: patients,
    }
}

impl World {
    pub fn new(workload: Workload, seed: u64) -> World {
        let s = |i: u64| seed.wrapping_mul(1000).wrapping_add(i);
        // (laboratory sizes, ward sizes, users per class, probe document)
        let (lab_sizes, ward_sizes, per_class, probe): (Vec<usize>, Vec<usize>, usize, bool) =
            match workload {
                Workload::WarmRead => (vec![160; 4], vec![], 3, true),
                Workload::ColdRead => (vec![48, 48, 192, 192], vec![48, 48, 192, 192], 2, true),
                Workload::ReadWrite => (vec![40; 2], vec![], 2, false),
            };
        let mut docs: Vec<DocSpec> = Vec::new();
        for (i, &n) in lab_sizes.iter().enumerate() {
            docs.push(lab_doc(format!("lab{i}.xml"), n, s(i as u64)));
        }
        for (i, &n) in ward_sizes.iter().enumerate() {
            docs.push(ward_doc(format!("ward{i}.xml"), n, s(100 + i as u64)));
        }
        let probe_doc = probe.then(|| {
            docs.push(lab_doc("probe.xml".to_string(), 64, s(200)));
            docs.len() - 1
        });

        let lab_users: Vec<String> =
            (0..per_class * LAB_CLASSES.len()).map(|i| format!("lab{i}")).collect();
        let ward_users: Vec<(String, &str)> = if ward_sizes.is_empty() {
            Vec::new()
        } else {
            (0..per_class * WARD_CLASSES.len())
                .map(|i| (format!("ward{i}"), WARD_CLASSES[i % WARD_CLASSES.len()].0))
                .collect()
        };
        let mut readers = Vec::new();
        let mut class = Vec::new();
        let mut catalog = Vec::new();
        for (i, u) in lab_users.iter().enumerate() {
            let (_, ip, sym) = LAB_CLASSES[i % LAB_CLASSES.len()];
            readers.push(Client { user: u.clone(), ip, sym });
            class.push(i % LAB_CLASSES.len());
        }
        for (i, (u, _)) in ward_users.iter().enumerate() {
            let (_, ip, sym) = WARD_CLASSES[i % WARD_CLASSES.len()];
            readers.push(Client { user: u.clone(), ip, sym });
            class.push(LAB_CLASSES.len() + i % WARD_CLASSES.len());
        }
        for (d, doc) in docs.iter().enumerate() {
            if Some(d) == probe_doc {
                continue;
            }
            let range = if doc.lab { 0..lab_users.len() } else { lab_users.len()..readers.len() };
            catalog.extend(range.map(|r| (d, r)));
        }

        let mut base = AuthorizationBase::new();
        base.add(auth(
            "Foreign",
            "*",
            "*",
            LAB_DTD_URI,
            r#"/laboratory//paper[./@category="private"]"#,
            Sign::Minus,
            AuthType::Recursive,
        ));
        if !ward_sizes.is_empty() {
            base.extend(hospital_authorizations());
        }
        for doc in &docs {
            if doc.lab {
                base.extend(lab_doc_auths(&doc.uri));
            } else {
                base.add(auth(
                    "Auditors",
                    "*",
                    "*",
                    &doc.uri,
                    "/ward",
                    Sign::Plus,
                    AuthType::Recursive,
                ));
            }
        }

        let fixed =
            |user: &str| Client { user: user.to_string(), ip: "150.100.30.20", sym: "ops.lab.com" };
        World {
            workload,
            dir: directory(&lab_users, &ward_users),
            base,
            docs,
            readers,
            class,
            catalog,
            probe_doc,
            editor: fixed("editor"),
            intruder: fixed("intruder"),
            auditor: fixed("auditor"),
            cache_capacity: (workload == Workload::ColdRead).then_some(COLD_CACHE_CAPACITY),
        }
    }

    /// Every user the server must authenticate.
    pub fn clients(&self) -> impl Iterator<Item = &Client> {
        self.readers.iter().chain([&self.editor, &self.intruder, &self.auditor])
    }

    /// A server holding this world. `cached = false` gives the cache-less
    /// oracle; otherwise the cache is configured as the workload says.
    pub fn server(&self, cached: bool) -> SecureServer {
        let mut s = SecureServer::new(self.dir.clone(), self.base.clone());
        s = match (cached, self.cache_capacity) {
            (false, _) => s.without_cache(),
            (true, Some(cap)) => s.with_cache_capacity(cap),
            (true, None) => s,
        };
        for c in self.clients() {
            s.register_credentials(&c.user, PASS);
        }
        let repo = s.repository_mut();
        repo.put_dtd(LAB_DTD_URI, LAB_DTD);
        repo.put_dtd(HOSPITAL_DTD_URI, HOSPITAL_DTD);
        for d in &self.docs {
            repo.put_document(&d.uri, &d.xml, Some(d.dtd_uri));
        }
        s
    }
}

/// Who sends a batch, and the outcome the workload design expects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// An editor batch on writable fields: `200 updated N`.
    Commit,
    /// A batch from a requester with no write grant: the static
    /// pre-flight's `403`.
    StaticDeny,
}

/// One generated update batch.
#[derive(Debug, Clone)]
pub struct WriteOp {
    pub doc: usize,
    pub intruder: bool,
    pub body: String,
    pub expect: Expect,
}

/// The writer's seeded batch generator. It remembers which projects
/// carry an inserted paper so that deletes always name an existing node.
pub struct WriteGen {
    rng: Rng,
    docs: Vec<(usize, usize)>,
    pending: Vec<Vec<usize>>,
    n: u64,
    probe: bool,
}

impl WriteGen {
    /// Batches for the `read_write` writer, over the documents readers read.
    pub fn workload(world: &World, seed: u64) -> WriteGen {
        let mut docs: Vec<usize> = world.catalog.iter().map(|&(d, _)| d).collect();
        docs.dedup();
        WriteGen::new(world, docs, seed, false)
    }

    /// Single-op editor batches on the probe document.
    pub fn probe(world: &World, seed: u64) -> WriteGen {
        WriteGen::new(world, world.probe_doc.into_iter().collect(), seed, true)
    }

    fn new(world: &World, docs: Vec<usize>, seed: u64, probe: bool) -> WriteGen {
        let n = docs.len();
        WriteGen {
            rng: Rng::new(seed, if probe { 77 } else { 55 }),
            docs: docs.into_iter().map(|d| (d, world.docs[d].units)).collect(),
            pending: vec![Vec::new(); n],
            n: 0,
            probe,
        }
    }

    pub fn next_op(&mut self) -> WriteOp {
        self.n += 1;
        let n = self.n;
        let slot = self.rng.below(self.docs.len());
        let (doc, projects) = self.docs[slot];
        let p = 1 + self.rng.below(projects);
        let commit = |body: String| WriteOp { doc, intruder: false, body, expect: Expect::Commit };
        if self.probe {
            return commit(format!("settext /laboratory/project[{p}]/paper[2]/title\tProbe {n}\n"));
        }
        let r = self.rng.unit();
        if r < 0.15 {
            let body = format!("settext /laboratory/project[{p}]/paper[2]/title\tforged {n}\n");
            return WriteOp { doc, intruder: true, body, expect: Expect::StaticDeny };
        }
        if r < 0.30 {
            let pending = &mut self.pending[slot];
            if !pending.is_empty() && (pending.len() >= 8 || self.rng.unit() < 0.5) {
                let q = pending.remove(self.rng.below(pending.len()));
                return commit(format!("delete /laboratory/project[{q}]/paper[3]\n"));
            }
            if !pending.contains(&p) {
                pending.push(p);
                return commit(format!(
                    "insertsub /laboratory/project[{p}]\t<paper category=\"public\" type=\"journal\"><title>Extra {n}</title></paper>\n"
                ));
            }
        }
        let mut body = String::new();
        for k in 0..1 + self.rng.below(3) {
            let q = if k == 0 { p } else { 1 + self.rng.below(projects) };
            match self.rng.below(3) {
                0 => body.push_str(&format!(
                    "settext /laboratory/project[{q}]/paper[2]/title\tPaper {q} rev {n}\n"
                )),
                1 => body.push_str(&format!(
                    "setattr /laboratory/project[{q}]/paper[2]\ttype\t{}\n",
                    ["journal", "conference", "workshop"][self.rng.below(3)]
                )),
                _ => body.push_str(&format!(
                    "settext /laboratory/project[{q}]/manager/flname\tManager {q} rev {n}\n"
                )),
            }
        }
        commit(body)
    }
}
