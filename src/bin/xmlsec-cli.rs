//! `xmlsec-cli` — command-line front end to the security processor.
//!
//! ```text
//! xmlsec-cli view     --doc F --uri U --user NAME --ip IP --host H
//!                     [--dtd F --dtd-uri U] [--xacl F]... [--dir F]
//!                     [--open] [--pretty]
//! xmlsec-cli validate --doc F --dtd F
//! xmlsec-cli loosen   --dtd F
//! xmlsec-cli tree     --doc F | --dtd F [--root NAME]
//! xmlsec-cli xpath    --doc F --expr PATH
//! xmlsec-cli xacl     --xacl F            # check & echo an XACL
//! xmlsec-cli serve    --addr 127.0.0.1:8080 --doc F --uri U [--dtd F --dtd-uri U]
//!                     [--xacl F]... [--dir F] [--cred user:pass]...
//!                     [--workers N] [--backlog N] [--read-timeout-ms N]
//!                     [--write-timeout-ms N] [--deadline-ms N] [--shed-adaptive on|off]
//!                     [--shed-target-ms N] [--shed-interval-ms N]
//!                     [--max-input-bytes N] [--max-depth N]
//!                     [--max-nodes N] [--max-entity-expansion N] [--max-node-visits N]
//!                     [--compile on|off]
//! xmlsec-cli compile  <dtd> <xacl> --user NAME --ip IP --host H
//!                     [--doc-uri U] [--dtd-uri U] [--root NAME] [--dir F]
//!                     [--open] [--format human|json]
//! ```
//!
//! The directory file (`--dir`) is line-oriented:
//!
//! ```text
//! user Tom
//! group Foreign
//! member Tom Foreign
//! ```

use std::collections::HashMap;
use std::process::ExitCode;
use xmlsec::prelude::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let opts = match Opts::parse(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match cmd.as_str() {
        "view" => cmd_view(&opts),
        "update" => cmd_update(&opts),
        "validate" => cmd_validate(&opts),
        "loosen" => cmd_loosen(&opts),
        "tree" => cmd_tree(&opts),
        "xpath" => cmd_xpath(&opts),
        "xacl" => cmd_xacl(&opts),
        "serve" => cmd_serve(&opts),
        "stats" => cmd_stats(&opts),
        "explain" => cmd_explain(&opts),
        "analyze" => cmd_analyze(&opts),
        "compile" => cmd_compile(&opts),
        "lint" => cmd_lint(&opts),
        other => Err(format!("unknown command {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage: xmlsec-cli <view|validate|loosen|tree|xpath|xacl> [options]
  view:     --doc F --uri U --user NAME --ip IP --host H [--dtd F --dtd-uri U] [--xacl F]... [--dir F] [--open] [--pretty]
  update:   --doc F --uri U --user NAME --ip IP --host H --ops F (or - for stdin)
            [--dtd F --dtd-uri U] [--xacl F]... [--dir F] [--open]
            ops file: one op per line, tab-separated fields —
              settext <path>\\t<text> | setattr <path>\\t<name>\\t<value> | insert <path>\\t<name>
              insertsub <path>\\t<xml> | replacesub <path>\\t<xml> | delete <path>
            prints the committed document to stdout
  validate: --doc F --dtd F [--strict]
  loosen:   --dtd F
  tree:     --doc F | --dtd F [--root NAME]
  xpath:    --doc F --expr PATH
  xacl:     --xacl F
  serve:    --addr A:P (--site DIR | --doc F --uri U [--dtd F --dtd-uri U] [--xacl F]... [--dir F] [--cred user:pass]...)
            transport: [--transport pool|epoll (default pool; epoll is the Linux event loop)]
            pool: [--workers N] [--backlog N] [--read-timeout-ms N] [--write-timeout-ms N]
            robustness: [--deadline-ms N (per-request deadline; 0=off)] [--shed-adaptive on|off]
                        [--shed-target-ms N] [--shed-interval-ms N]
            cache: [--cache-capacity N (bound the view cache; 0=off)]
            limits: [--max-input-bytes N] [--max-depth N] [--max-nodes N] [--max-entity-expansion N] [--max-node-visits N]
            parallel: [--par-threads N (0=auto)] [--par-threshold NODES]
            jit: [--compile on|off (default on: serve guaranteed labels from compiled verdict tables)]
  stats:    --doc F --uri U --user NAME --ip IP --host H [--xacl F]... [--dir F] [--dtd F --dtd-uri U] [--repeat N] [--prometheus]
            parallel: [--par-threads N (0=auto)] [--par-threshold NODES]
  explain:  --doc F --uri U --user NAME --ip IP --host H [--xacl F]... [--dir F]
  analyze:  <dtd> <xacl> | --dtd F --xacl F
            [--root NAME] [--dtd-uri U] [--dir F] [--open]
            [--subjects closure|list] [--subject user[:ip[:host]]]...
            [--format human|json]
            [--writes (write-effect tables: per-node update verdicts instead of read tables)]
  compile:  <dtd> <xacl> | --dtd F --xacl F
            --user NAME --ip IP --host H [--doc-uri U] [--dtd-uri U]
            [--root NAME] [--dir F] [--open] [--format human|json]
  lint:     --xacl F [--dir F]";

/// Parsed command-line options (flag → values; repeatable flags collect;
/// non-`--` arguments are kept as positionals, in order).
struct Opts {
    values: HashMap<String, Vec<String>>,
    flags: Vec<String>,
    positionals: Vec<String>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut values: HashMap<String, Vec<String>> = HashMap::new();
        let mut flags = Vec::new();
        let mut positionals = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                positionals.push(a.clone());
                continue;
            };
            match name {
                "open" | "pretty" | "strict" | "prometheus" | "writes" => {
                    flags.push(name.to_string())
                }
                _ => {
                    let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    values.entry(name.to_string()).or_default().push(v.clone());
                }
            }
        }
        Ok(Opts { values, flags, positionals })
    }

    /// The `i`-th positional argument, or the value of `--{fallback}`.
    fn positional_or(&self, i: usize, fallback: &str) -> Result<&str, String> {
        self.positionals
            .get(i)
            .map(String::as_str)
            .or_else(|| self.opt(fallback))
            .ok_or_else(|| format!("missing {fallback} (positional argument or --{fallback})"))
    }

    fn one(&self, name: &str) -> Result<&str, String> {
        self.values
            .get(name)
            .and_then(|v| v.first())
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{name}"))
    }

    fn opt(&self, name: &str) -> Option<&str> {
        self.values.get(name).and_then(|v| v.first()).map(String::as_str)
    }

    fn many(&self, name: &str) -> &[String] {
        self.values.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))
}

/// Parses the line-oriented directory file.
fn load_directory(path: Option<&str>) -> Result<Directory, String> {
    let mut dir = Directory::new();
    let Some(path) = path else { return Ok(dir) };
    for (i, line) in read(path)?.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        let err = |e: &dyn std::fmt::Display| format!("{path}:{}: {e}", i + 1);
        match parts.as_slice() {
            ["user", name] => dir.add_user(name).map_err(|e| err(&e))?,
            ["group", name] => dir.add_group(name).map_err(|e| err(&e))?,
            ["member", member, group] => dir.add_member(member, group).map_err(|e| err(&e))?,
            _ => return Err(format!("{path}:{}: unrecognized line {line:?}", i + 1)),
        }
    }
    Ok(dir)
}

fn cmd_view(o: &Opts) -> Result<(), String> {
    let xml = read(o.one("doc")?)?;
    let uri = o.one("uri")?;
    let mut dir = load_directory(o.opt("dir"))?;
    // The requesting user always exists.
    let user = o.one("user")?;
    let _ = dir.add_user(user);

    let mut base = AuthorizationBase::new();
    for xacl_path in o.many("xacl") {
        let auths = parse_xacl(&read(xacl_path)?).map_err(|e| e.to_string())?;
        // Register every subject so coverage checks can resolve groups
        // that the directory file did not mention.
        for a in &auths {
            if dir.kind(&a.subject.user_group).is_none() {
                let _ = dir.add_group(&a.subject.user_group);
            }
        }
        base.extend(auths);
    }

    let dtd_text = o.opt("dtd").map(read).transpose()?;
    let policy = PolicyConfig {
        completeness: if o.flag("open") {
            CompletenessPolicy::Open
        } else {
            CompletenessPolicy::Closed
        },
        ..Default::default()
    };
    let processor = xmlsec::core::SecurityProcessor {
        directory: dir,
        authorizations: base,
        options: xmlsec::core::ProcessorOptions { policy, ..Default::default() },
        decisions: None,
        compiled: None,
    };
    let requester =
        Requester::new(user, o.one("ip")?, o.one("host")?).map_err(|e| e.to_string())?;
    let out = processor
        .process(
            &AccessRequest { requester, uri: uri.to_string() },
            &DocumentSource {
                xml: &xml,
                dtd: dtd_text.as_deref(),
                dtd_uri: o.opt("dtd-uri"),
                ..Default::default()
            },
        )
        .map_err(|e| e.to_string())?;
    if o.flag("pretty") {
        print!("{}", serialize(&out.view, &SerializeOptions::pretty()));
    } else {
        println!("{}", out.xml);
    }
    if let Some(l) = out.loosened_dtd {
        eprintln!("-- loosened DTD --\n{l}");
    }
    Ok(())
}

/// `update` — the §8 write path from the shell: authorize a batch of
/// update operations against the requester's write grants, apply it
/// transactionally (all ops or none, DTD validity preserved), and print
/// the committed document to stdout.
fn cmd_update(o: &Opts) -> Result<(), String> {
    let xml = read(o.one("doc")?)?;
    let uri = o.one("uri")?;
    let user = o.one("user")?;
    let mut dir = load_directory(o.opt("dir"))?;
    let _ = dir.add_user(user);
    let mut base = AuthorizationBase::new();
    for xacl_path in o.many("xacl") {
        let auths = parse_xacl(&read(xacl_path)?).map_err(|e| e.to_string())?;
        for a in &auths {
            if dir.kind(&a.subject.user_group).is_none() {
                let _ = dir.add_group(&a.subject.user_group);
            }
        }
        base.extend(auths);
    }
    let mut server = SecureServer::new(dir, base).without_cache();
    server.register_credentials(user, "-");
    let dtd_uri = o.opt("dtd-uri");
    if let Some(dtd_path) = o.opt("dtd") {
        let duri = dtd_uri.ok_or("--dtd requires --dtd-uri")?;
        server.repository_mut().put_dtd(duri, &read(dtd_path)?);
    }
    server.repository_mut().put_document(uri, &xml, dtd_uri);
    if o.flag("open") {
        server = server.with_policy(PolicyConfig {
            completeness: CompletenessPolicy::Open,
            ..Default::default()
        });
    }
    let ops_path = o.one("ops")?;
    let ops_text = if ops_path == "-" {
        use std::io::Read as _;
        let mut buf = String::new();
        std::io::stdin().read_to_string(&mut buf).map_err(|e| e.to_string())?;
        buf
    } else {
        read(ops_path)?
    };
    let ops = xmlsec::server::parse_update_ops(&ops_text)?;
    let request = ClientRequest {
        user: Some((user.to_string(), "-".to_string())),
        ip: o.one("ip")?.to_string(),
        sym: o.one("host")?.to_string(),
        uri: uri.to_string(),
    };
    let touched = server.update(&request, &ops).map_err(|e| e.to_string())?;
    let repo = server.repository();
    let committed = repo.document(uri).ok_or("document vanished after commit")?;
    println!("{}", committed.xml);
    eprintln!("updated {touched} node(s) in {} op(s)", ops.len());
    Ok(())
}

fn cmd_validate(o: &Opts) -> Result<(), String> {
    let doc = parse(&read(o.one("doc")?)?).map_err(|e| e.to_string())?;
    let dtd = parse_dtd(&read(o.one("dtd")?)?).map_err(|e| e.to_string())?;
    // --strict additionally reports content models violating the XML 1.0
    // determinism rule.
    let validator = xmlsec::dtd::Validator::with_options(
        &dtd,
        xmlsec::dtd::ValidateOptions { check_determinism: o.flag("strict") },
    );
    let errs = validator.validate(&doc);
    if errs.is_empty() {
        println!("valid");
        Ok(())
    } else {
        for e in &errs {
            println!("{e}");
        }
        Err(format!("{} validity violations", errs.len()))
    }
}

fn cmd_loosen(o: &Opts) -> Result<(), String> {
    let dtd = parse_dtd(&read(o.one("dtd")?)?).map_err(|e| e.to_string())?;
    print!("{}", serialize_dtd(&loosen(&dtd)));
    Ok(())
}

fn cmd_tree(o: &Opts) -> Result<(), String> {
    if let Some(doc_path) = o.opt("doc") {
        let doc = parse(&read(doc_path)?).map_err(|e| e.to_string())?;
        print!("{}", render_tree(&doc));
        return Ok(());
    }
    let dtd = parse_dtd(&read(o.one("dtd")?)?).map_err(|e| e.to_string())?;
    let root = match o.opt("root") {
        Some(r) => r.to_string(),
        None => dtd
            .root_candidates()
            .first()
            .ok_or("cannot infer a root element; pass --root")?
            .to_string(),
    };
    let tree = xmlsec::dtd::dtd_tree(&dtd, &root)
        .ok_or_else(|| format!("element {root:?} is not declared"))?;
    print!("{}", xmlsec::dtd::render_dtd_tree(&tree));
    Ok(())
}

fn cmd_xpath(o: &Opts) -> Result<(), String> {
    let doc = parse(&read(o.one("doc")?)?).map_err(|e| e.to_string())?;
    let path = parse_path(o.one("expr")?).map_err(|e| e.to_string())?;
    for n in select(&doc, &path) {
        if doc.is_attribute(n) {
            println!("{}", doc.attr_value(n).unwrap_or_default());
        } else {
            println!("{}", xmlsec::xml::serialize_node(&doc, n));
        }
    }
    Ok(())
}

/// A numeric flag, absent if not given, an error if not a number.
fn parse_num<T: std::str::FromStr>(o: &Opts, name: &str) -> Result<Option<T>, String> {
    match o.opt(name) {
        None => Ok(None),
        Some(v) => v.parse().map(Some).map_err(|_| format!("--{name} must be a number, got {v:?}")),
    }
}

/// Builds the labeling parallelism knob from `--par-threads` /
/// `--par-threshold`. `--par-threads 0` sizes the pool from the machine;
/// the default (flag absent) stays sequential.
fn parallelism_config(o: &Opts) -> Result<xmlsec::core::Parallelism, String> {
    let mut par = match parse_num::<usize>(o, "par-threads")? {
        None => xmlsec::core::Parallelism::sequential(),
        Some(0) => xmlsec::core::Parallelism::auto(),
        Some(n) => xmlsec::core::Parallelism::threads(n),
    };
    if let Some(t) = parse_num(o, "par-threshold")? {
        par = par.with_seq_threshold(t);
    }
    Ok(par)
}

/// Builds the HTTP pool configuration and per-request resource limits
/// for `serve` from the command line, starting from the defaults.
fn serve_config(
    o: &Opts,
) -> Result<(xmlsec::server::HttpConfig, xmlsec::core::ResourceLimits), String> {
    let mut cfg = xmlsec::server::HttpConfig::default();
    if let Some(n) = parse_num(o, "workers")? {
        cfg.workers = n;
    }
    if let Some(n) = parse_num(o, "backlog")? {
        cfg.backlog = n;
    }
    if let Some(ms) = parse_num(o, "read-timeout-ms")? {
        cfg.read_timeout = std::time::Duration::from_millis(ms);
    }
    if let Some(ms) = parse_num(o, "write-timeout-ms")? {
        cfg.write_timeout = std::time::Duration::from_millis(ms);
    }
    // End-to-end deadline per request; 0 turns the server-side deadline
    // off (clients can still send X-Request-Deadline).
    if let Some(ms) = parse_num::<u64>(o, "deadline-ms")? {
        cfg.request_deadline = (ms > 0).then(|| std::time::Duration::from_millis(ms));
    }
    match o.opt("shed-adaptive") {
        None | Some("on") => {}
        Some("off") => cfg.shed_adaptive = false,
        Some(other) => return Err(format!("--shed-adaptive must be on or off, got {other:?}")),
    }
    if let Some(ms) = parse_num(o, "shed-target-ms")? {
        cfg.shed_target = std::time::Duration::from_millis(ms);
    }
    if let Some(ms) = parse_num(o, "shed-interval-ms")? {
        cfg.shed_interval = std::time::Duration::from_millis(ms);
    }
    let mut limits = xmlsec::core::ResourceLimits::default();
    if let Some(n) = parse_num(o, "max-input-bytes")? {
        limits.xml.max_input_bytes = n;
    }
    if let Some(n) = parse_num(o, "max-depth")? {
        limits.xml.max_depth = n;
    }
    if let Some(n) = parse_num(o, "max-nodes")? {
        limits.xml.max_nodes = n;
    }
    if let Some(n) = parse_num(o, "max-entity-expansion")? {
        limits.xml.max_entity_expansion = n;
    }
    if let Some(n) = parse_num(o, "max-node-visits")? {
        limits.xpath.max_node_visits = n;
    }
    Ok((cfg, limits))
}

/// Applies `--cache-capacity N` to a server: `0` disables the view
/// cache entirely (every request recomputes), any other `N` bounds it.
fn apply_cache_capacity(
    server: xmlsec::server::SecureServer,
    o: &Opts,
) -> Result<xmlsec::server::SecureServer, String> {
    Ok(match parse_num(o, "cache-capacity")? {
        Some(0) => server.without_cache(),
        Some(n) => server.with_cache_capacity(n),
        None => server,
    })
}

/// Parses `serve --compile on|off` (policy compilation; default on).
fn compile_flag(o: &Opts) -> Result<bool, String> {
    match o.opt("compile") {
        None | Some("on") => Ok(true),
        Some("off") => Ok(false),
        Some(other) => Err(format!("--compile must be on or off, got {other:?}")),
    }
}

/// Parses `serve --transport pool|epoll` (front-end selection; default
/// is the portable blocking pool).
fn transport_flag(o: &Opts) -> Result<xmlsec::server::Transport, String> {
    match o.opt("transport") {
        None => Ok(xmlsec::server::Transport::default()),
        Some(t) => t.parse(),
    }
}

fn cmd_serve(o: &Opts) -> Result<(), String> {
    let (cfg, limits) = serve_config(o)?;
    let par = parallelism_config(o)?;
    let compile = compile_flag(o)?;
    let transport = transport_flag(o)?;
    // --site DIR loads a whole directory (documents, DTDs, XACLs,
    // _directory.txt, _credentials.txt) in one go.
    if let Some(site) = o.opt("site") {
        let (server, summary) =
            xmlsec::server::load_site(std::path::Path::new(site)).map_err(|e| e.to_string())?;
        let server = apply_cache_capacity(
            server.with_limits(limits).with_parallelism(par).with_compile(compile),
            o,
        )?;
        let addr = o.opt("addr").unwrap_or("127.0.0.1:8080");
        let demo = xmlsec::server::AnyDemo::start_with(transport, server, addr, cfg)
            .map_err(|e| e.to_string())?;
        eprintln!(
            "serving {} document(s), {} DTD(s), {} authorization(s) on http://{}",
            summary.documents.len(),
            summary.dtds.len(),
            summary.authorizations,
            demo.addr()
        );
        loop {
            std::thread::park();
        }
    }
    let mut dir = load_directory(o.opt("dir"))?;
    let mut base = xmlsec::authz::AuthorizationBase::new();
    for xacl_path in o.many("xacl") {
        let auths = parse_xacl(&read(xacl_path)?).map_err(|e| e.to_string())?;
        for a in &auths {
            if dir.kind(&a.subject.user_group).is_none() {
                let _ = dir.add_group(&a.subject.user_group);
            }
        }
        base.extend(auths);
    }
    let mut server = SecureServer::new(dir, base);
    for cred in o.many("cred") {
        let (u, p) = cred
            .split_once(':')
            .ok_or_else(|| format!("--cred must be user:pass, got {cred:?}"))?;
        server.register_credentials(u, p);
    }
    let xml = read(o.one("doc")?)?;
    let dtd_uri = o.opt("dtd-uri");
    if let Some(dtd_path) = o.opt("dtd") {
        let uri = dtd_uri.ok_or("--dtd requires --dtd-uri")?;
        server.repository_mut().put_dtd(uri, &read(dtd_path)?);
    }
    server.repository_mut().put_document(o.one("uri")?, &xml, dtd_uri);
    let server = apply_cache_capacity(
        server.with_limits(limits).with_parallelism(par).with_compile(compile),
        o,
    )?;

    let addr = o.opt("addr").unwrap_or("127.0.0.1:8080");
    let demo = xmlsec::server::AnyDemo::start_with(transport, server, addr, cfg)
        .map_err(|e| e.to_string())?;
    eprintln!(
        "serving on http://{} — try GET /{}?user=U&pass=P&ip=A&host=H (Ctrl-C to stop)",
        demo.addr(),
        o.one("uri")?
    );
    // Park the main thread; the accept loop runs until the process dies.
    loop {
        std::thread::park();
    }
}

/// Runs the pipeline (optionally `--repeat N` times) and dumps the
/// telemetry it produced: the span trace of the runs and a summary of
/// every metric series. `--prometheus` prints the raw exposition text
/// instead of the summary — byte-identical to the server's `/metrics`.
fn cmd_stats(o: &Opts) -> Result<(), String> {
    let xml = read(o.one("doc")?)?;
    let uri = o.one("uri")?;
    let mut dir = load_directory(o.opt("dir"))?;
    let user = o.one("user")?;
    let _ = dir.add_user(user);
    let mut base = AuthorizationBase::new();
    for xacl_path in o.many("xacl") {
        let auths = parse_xacl(&read(xacl_path)?).map_err(|e| e.to_string())?;
        for a in &auths {
            if dir.kind(&a.subject.user_group).is_none() {
                let _ = dir.add_group(&a.subject.user_group);
            }
        }
        base.extend(auths);
    }
    let dtd_text = o.opt("dtd").map(read).transpose()?;
    let policy = PolicyConfig {
        completeness: if o.flag("open") {
            CompletenessPolicy::Open
        } else {
            CompletenessPolicy::Closed
        },
        ..Default::default()
    };
    let par = parallelism_config(o)?;
    let processor = xmlsec::core::SecurityProcessor {
        directory: dir,
        authorizations: base,
        options: xmlsec::core::ProcessorOptions { policy, parallelism: par, ..Default::default() },
        decisions: Some(std::sync::Arc::new(xmlsec::core::DecisionCache::new())),
        compiled: Some(std::sync::Arc::new(xmlsec::core::CompiledCache::new())),
    };
    let requester =
        Requester::new(user, o.one("ip")?, o.one("host")?).map_err(|e| e.to_string())?;
    let repeat: usize = match o.opt("repeat") {
        Some(n) => n.parse().map_err(|_| format!("--repeat must be a number, got {n:?}"))?,
        None => 1,
    };

    xmlsec::telemetry::trace::clear_recent_spans();
    for _ in 0..repeat.max(1) {
        processor
            .process(
                &AccessRequest { requester: requester.clone(), uri: uri.to_string() },
                &DocumentSource {
                    xml: &xml,
                    dtd: dtd_text.as_deref(),
                    dtd_uri: o.opt("dtd-uri"),
                    ..Default::default()
                },
            )
            .map_err(|e| e.to_string())?;
    }

    if o.flag("prometheus") {
        print!("{}", xmlsec::telemetry::global().render_prometheus());
        return Ok(());
    }
    println!("-- spans ({} run(s)) --", repeat.max(1));
    print!("{}", xmlsec::telemetry::trace::render_recent_spans());
    println!("-- metrics --");
    for s in xmlsec::telemetry::global().snapshot() {
        let labels = if s.labels.is_empty() {
            String::new()
        } else {
            let pairs: Vec<String> = s.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
            format!("{{{}}}", pairs.join(","))
        };
        match s.kind {
            "histogram" => {
                let count = s.value;
                let sum = s.sum.unwrap_or(0.0);
                let mean = if count > 0.0 { sum / count } else { 0.0 };
                println!("{}{labels}: count={count} mean={:.9}s total={:.9}s", s.name, mean, sum);
            }
            _ => println!("{}{labels}: {}", s.name, s.value),
        }
    }
    Ok(())
}

/// Prints the labeled tree (per-node final signs) for a requester — the
/// debugging view of the compute-view algorithm.
fn cmd_explain(o: &Opts) -> Result<(), String> {
    let xml = read(o.one("doc")?)?;
    let uri = o.one("uri")?;
    let mut dir = load_directory(o.opt("dir"))?;
    let user = o.one("user")?;
    let _ = dir.add_user(user);
    let mut base = AuthorizationBase::new();
    for xacl_path in o.many("xacl") {
        let auths = parse_xacl(&read(xacl_path)?).map_err(|e| e.to_string())?;
        for a in &auths {
            if dir.kind(&a.subject.user_group).is_none() {
                let _ = dir.add_group(&a.subject.user_group);
            }
        }
        base.extend(auths);
    }
    let requester =
        Requester::new(user, o.one("ip")?, o.one("host")?).map_err(|e| e.to_string())?;
    let doc = parse(&xml).map_err(|e| e.to_string())?;
    let axml = base.applicable(uri, &requester, &dir);
    println!("{} applicable instance-level authorizations:", axml.len());
    for a in &axml {
        println!("  {a}");
    }
    let labeling =
        xmlsec::core::label_document(&doc, &axml, &[], &dir, PolicyConfig::paper_default());
    print!("{}", xmlsec::core::render_labeled(&doc, &labeling));
    Ok(())
}

/// Escapes a string for inclusion in a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_opt_usize(v: Option<usize>) -> String {
    v.map_or_else(|| "null".to_string(), |n| n.to_string())
}

fn json_opt_str(v: Option<&str>) -> String {
    v.map_or_else(|| "null".to_string(), json_str)
}

/// Parses a `--subject` spec `user[:ip[:host]]` (missing parts default
/// to `*`).
fn parse_subject_spec(spec: &str) -> Result<Subject, String> {
    let mut parts = spec.splitn(3, ':');
    let user = parts.next().unwrap_or("*");
    let ip = parts.next().unwrap_or("*");
    let host = parts.next().unwrap_or("*");
    Subject::new(user, ip, host).map_err(|e| format!("bad --subject {spec:?}: {e}"))
}

/// Whole-policy static analysis: per-authorization schema coverage (with
/// dead-path detection), per-subject decision tables over the DTD graph,
/// and policy-level findings. Exits nonzero when any error-class finding
/// is present.
fn cmd_analyze(o: &Opts) -> Result<(), String> {
    let dtd_path = o.positional_or(0, "dtd")?;
    let xacl_path = o.positional_or(1, "xacl")?;
    let dtd = parse_dtd(&read(dtd_path)?).map_err(|e| e.to_string())?;
    let auths = parse_xacl(&read(xacl_path)?).map_err(|e| e.to_string())?;
    let mut dir = load_directory(o.opt("dir"))?;
    // As in `view`: subjects an XACL names exist, even when no directory
    // file spells them out.
    for a in &auths {
        if dir.kind(&a.subject.user_group).is_none() {
            let _ = dir.add_group(&a.subject.user_group);
        }
    }
    let root = match o.opt("root") {
        Some(r) => r.to_string(),
        None => dtd
            .root_candidates()
            .first()
            .ok_or("cannot infer a root element; pass --root")?
            .to_string(),
    };
    let dtd_uri = o.opt("dtd-uri").map(str::to_string).unwrap_or_else(|| {
        std::path::Path::new(dtd_path)
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| dtd_path.to_string())
    });
    let policy = PolicyConfig {
        completeness: if o.flag("open") {
            CompletenessPolicy::Open
        } else {
            CompletenessPolicy::Closed
        },
        ..Default::default()
    };
    let subjects: Vec<Subject> = match o.opt("subjects").unwrap_or("closure") {
        "closure" => xmlsec::core::closure_subjects(&auths, &dir),
        "list" => {
            let specs = o.many("subject");
            if specs.is_empty() {
                return Err("--subjects list needs at least one --subject".to_string());
            }
            specs.iter().map(|s| parse_subject_spec(s)).collect::<Result<_, _>>()?
        }
        other => return Err(format!("--subjects must be closure or list, not {other:?}")),
    };

    if o.flag("writes") {
        return cmd_analyze_writes(o, &dtd, &auths, &dir, &root, &dtd_uri, policy, &subjects);
    }

    let coverage = xmlsec::core::analyze_against_schema(&dtd, &root, &auths);
    let mut findings = xmlsec::authz::lint_policy(&auths, &dir);
    findings.extend(xmlsec::core::coverage_findings(&dtd, &root, &auths));
    let report =
        xmlsec::core::analyze_policy(&dtd, &root, &dtd_uri, &auths, &dir, policy, &subjects);
    findings.extend(report.findings.iter().cloned());
    findings.sort_by(|a, b| a.severity.cmp(&b.severity).then_with(|| a.kind.cmp(&b.kind)));
    let (errors, warnings, infos) = xmlsec::authz::severity_counts(&findings);

    match o.opt("format").unwrap_or("human") {
        "human" => {
            println!(
                "policy analysis: root <{root}>, dtd-uri {dtd_uri:?}, {} authorization(s)",
                auths.len()
            );
            if report.skipped_non_read > 0 {
                println!(
                    "({} non-read authorization(s) excluded from decision tables)",
                    report.skipped_non_read
                );
            }
            println!("\ncoverage:");
            for entry in &coverage {
                println!("{}", entry.authorization);
                if entry.covers.is_empty() {
                    println!("    !! DEAD PATH: selects nothing on any instance");
                } else {
                    for c in &entry.covers {
                        println!("    covers {c}");
                    }
                }
            }
            for t in &report.subjects {
                println!("\ndecision table {}:", t.subject);
                let width =
                    t.cells.iter().map(|c| c.node.to_string().chars().count()).max().unwrap_or(0);
                for c in &t.cells {
                    let node = c.node.to_string();
                    let pad = " ".repeat(width.saturating_sub(node.chars().count()));
                    match &c.verdict {
                        xmlsec::core::Verdict::Instance { reason } => {
                            println!(
                                "    {node}{pad}  {:6}  {} ({reason})",
                                c.signs,
                                c.verdict.code()
                            );
                        }
                        v => println!("    {node}{pad}  {:6}  {}", c.signs, v.code()),
                    }
                }
            }
            if !findings.is_empty() {
                println!("\nfindings:");
                for f in &findings {
                    println!("  {f}");
                }
            }
            println!("\nsummary: {errors} error(s), {warnings} warning(s), {infos} info(s)");
        }
        "json" => {
            let mut out = String::from("{\n");
            out.push_str("  \"schema_version\": 1,\n");
            out.push_str(&format!("  \"root\": {},\n", json_str(&root)));
            out.push_str(&format!("  \"dtd_uri\": {},\n", json_str(&dtd_uri)));
            out.push_str(&format!("  \"authorizations\": {},\n", auths.len()));
            out.push_str(&format!("  \"skipped_non_read\": {},\n", report.skipped_non_read));
            out.push_str("  \"coverage\": [\n");
            let cov_rows: Vec<String> = coverage
                .iter()
                .enumerate()
                .map(|(i, entry)| {
                    let covers: Vec<String> =
                        entry.covers.iter().map(|c| json_str(&c.to_string())).collect();
                    format!(
                        "    {{\"auth\": {i}, \"dead\": {}, \"covers\": [{}]}}",
                        entry.covers.is_empty(),
                        covers.join(", ")
                    )
                })
                .collect();
            out.push_str(&cov_rows.join(",\n"));
            out.push_str("\n  ],\n  \"subjects\": [\n");
            let subj_rows: Vec<String> = report
                .subjects
                .iter()
                .map(|t| {
                    let cells: Vec<String> = t
                        .cells
                        .iter()
                        .map(|c| {
                            let reason = match &c.verdict {
                                xmlsec::core::Verdict::Instance { reason } => {
                                    json_str(reason)
                                }
                                _ => "null".to_string(),
                            };
                            format!(
                                "      {{\"node\": {}, \"signs\": {}, \"verdict\": {}, \"reason\": {reason}}}",
                                json_str(&c.node.to_string()),
                                json_str(&c.signs),
                                json_str(c.verdict.code()),
                            )
                        })
                        .collect();
                    format!(
                        "    {{\"subject\": {}, \"cells\": [\n{}\n    ]}}",
                        json_str(&t.subject.to_string()),
                        cells.join(",\n")
                    )
                })
                .collect();
            out.push_str(&subj_rows.join(",\n"));
            out.push_str("\n  ],\n  \"findings\": [\n");
            let finding_rows: Vec<String> = findings
                .iter()
                .map(|f| {
                    format!(
                        "    {{\"severity\": {}, \"kind\": {}, \"auth\": {}, \"other_auth\": {}, \"node\": {}, \"subject\": {}, \"message\": {}}}",
                        json_str(f.severity.as_str()),
                        json_str(&f.kind),
                        json_opt_usize(f.span.auth),
                        json_opt_usize(f.span.other_auth),
                        json_opt_str(f.span.node.as_deref()),
                        json_opt_str(f.span.subject.as_deref()),
                        json_str(&f.message),
                    )
                })
                .collect();
            out.push_str(&finding_rows.join(",\n"));
            out.push_str(&format!(
                "\n  ],\n  \"summary\": {{\"errors\": {errors}, \"warnings\": {warnings}, \"infos\": {infos}}}\n}}"
            ));
            println!("{out}");
        }
        other => return Err(format!("--format must be human or json, not {other:?}")),
    }
    if errors > 0 {
        Err(format!("{errors} error-class finding(s)"))
    } else {
        Ok(())
    }
}

/// `analyze --writes` — the write-effect half of the static analyzer:
/// per-subject write decision tables over the DTD graph (node-level
/// write verdict plus per-update-op verdicts) and whole-policy findings
/// (write-only regions, unwritable documents, patch amplification).
/// Exits nonzero when any error-class finding is present.
#[allow(clippy::too_many_arguments)]
fn cmd_analyze_writes(
    o: &Opts,
    dtd: &xmlsec::dtd::Dtd,
    auths: &[xmlsec::authz::Authorization],
    dir: &Directory,
    root: &str,
    dtd_uri: &str,
    policy: PolicyConfig,
    subjects: &[Subject],
) -> Result<(), String> {
    let report =
        xmlsec::core::analyze_policy_writes(dtd, root, dtd_uri, auths, dir, policy, subjects);
    let mut findings = report.findings.clone();
    findings.sort_by(|a, b| a.severity.cmp(&b.severity).then_with(|| a.kind.cmp(&b.kind)));
    let (errors, warnings, infos) = xmlsec::authz::severity_counts(&findings);

    match o.opt("format").unwrap_or("human") {
        "human" => {
            println!(
                "write-effect analysis: root <{root}>, dtd-uri {dtd_uri:?}, {} authorization(s)",
                auths.len()
            );
            if report.skipped_non_write > 0 {
                println!(
                    "({} non-write authorization(s) excluded from write tables)",
                    report.skipped_non_write
                );
            }
            for t in &report.subjects {
                println!("\nwrite table {}:", t.subject);
                if t.blanket_allow {
                    println!("    blanket allow: every batch is guaranteed-allow on any tree");
                }
                let width =
                    t.cells.iter().map(|c| c.node.to_string().chars().count()).max().unwrap_or(0);
                for c in &t.cells {
                    let node = c.node.to_string();
                    let pad = " ".repeat(width.saturating_sub(node.chars().count()));
                    let ops: Vec<String> =
                        c.ops.iter().map(|(op, v)| format!("{op}={}", v.code())).collect();
                    match &c.write {
                        xmlsec::core::Verdict::Instance { reason } => println!(
                            "    {node}{pad}  {:6}  {}  [{}] ({reason})",
                            c.signs,
                            c.write.code(),
                            ops.join(" "),
                        ),
                        v => println!(
                            "    {node}{pad}  {:6}  {}  [{}]",
                            c.signs,
                            v.code(),
                            ops.join(" "),
                        ),
                    }
                }
            }
            if !findings.is_empty() {
                println!("\nfindings:");
                for f in &findings {
                    println!("  {f}");
                }
            }
            println!("\nsummary: {errors} error(s), {warnings} warning(s), {infos} info(s)");
        }
        "json" => {
            let mut out = String::from("{\n");
            out.push_str("  \"schema_version\": 1,\n");
            out.push_str(&format!("  \"root\": {},\n", json_str(root)));
            out.push_str(&format!("  \"dtd_uri\": {},\n", json_str(dtd_uri)));
            out.push_str(&format!("  \"authorizations\": {},\n", auths.len()));
            out.push_str(&format!("  \"skipped_non_write\": {},\n", report.skipped_non_write));
            out.push_str("  \"subjects\": [\n");
            let subj_rows: Vec<String> = report
                .subjects
                .iter()
                .map(|t| {
                    let cells: Vec<String> = t
                        .cells
                        .iter()
                        .map(|c| {
                            let reason = match &c.write {
                                xmlsec::core::Verdict::Instance { reason } => json_str(reason),
                                _ => "null".to_string(),
                            };
                            let ops: Vec<String> = c
                                .ops
                                .iter()
                                .map(|(op, v)| format!("{}: {}", json_str(op), json_str(v.code())))
                                .collect();
                            format!(
                                "      {{\"node\": {}, \"signs\": {}, \"write\": {}, \"reason\": {reason}, \"ops\": {{{}}}}}",
                                json_str(&c.node.to_string()),
                                json_str(&c.signs),
                                json_str(c.write.code()),
                                ops.join(", "),
                            )
                        })
                        .collect();
                    format!(
                        "    {{\"subject\": {}, \"blanket_allow\": {}, \"cells\": [\n{}\n    ]}}",
                        json_str(&t.subject.to_string()),
                        t.blanket_allow,
                        cells.join(",\n")
                    )
                })
                .collect();
            out.push_str(&subj_rows.join(",\n"));
            out.push_str("\n  ],\n  \"findings\": [\n");
            let finding_rows: Vec<String> = findings
                .iter()
                .map(|f| {
                    format!(
                        "    {{\"severity\": {}, \"kind\": {}, \"auth\": {}, \"other_auth\": {}, \"node\": {}, \"subject\": {}, \"message\": {}}}",
                        json_str(f.severity.as_str()),
                        json_str(&f.kind),
                        json_opt_usize(f.span.auth),
                        json_opt_usize(f.span.other_auth),
                        json_opt_str(f.span.node.as_deref()),
                        json_opt_str(f.span.subject.as_deref()),
                        json_str(&f.message),
                    )
                })
                .collect();
            out.push_str(&finding_rows.join(",\n"));
            out.push_str(&format!(
                "\n  ],\n  \"summary\": {{\"errors\": {errors}, \"warnings\": {warnings}, \"infos\": {infos}}}\n}}"
            ));
            println!("{out}");
        }
        other => return Err(format!("--format must be human or json, not {other:?}")),
    }
    if errors > 0 {
        Err(format!("{errors} error-class finding(s)"))
    } else {
        Ok(())
    }
}

/// Compiles one requester's applicable policy against a DTD into the
/// runtime verdict table (see `xmlsec::core::compile`) and dumps it:
/// per-cell abstract signs and verdict, the statically-known concrete
/// sign when the cell is fast-path eligible, the residual instance
/// checks, and the whole-document fast-path flag.
fn cmd_compile(o: &Opts) -> Result<(), String> {
    let dtd_path = o.positional_or(0, "dtd")?;
    let xacl_path = o.positional_or(1, "xacl")?;
    let dtd = parse_dtd(&read(dtd_path)?).map_err(|e| e.to_string())?;
    let auths = parse_xacl(&read(xacl_path)?).map_err(|e| e.to_string())?;
    let mut dir = load_directory(o.opt("dir"))?;
    for a in &auths {
        if dir.kind(&a.subject.user_group).is_none() {
            let _ = dir.add_group(&a.subject.user_group);
        }
    }
    let user = o.one("user")?;
    let _ = dir.add_user(user);
    let requester =
        Requester::new(user, o.one("ip")?, o.one("host")?).map_err(|e| e.to_string())?;
    let root = match o.opt("root") {
        Some(r) => r.to_string(),
        None => dtd
            .root_candidates()
            .first()
            .ok_or("cannot infer a root element; pass --root")?
            .to_string(),
    };
    let dtd_uri = o.opt("dtd-uri").map(str::to_string).unwrap_or_else(|| {
        std::path::Path::new(dtd_path)
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| dtd_path.to_string())
    });
    let policy = PolicyConfig {
        completeness: if o.flag("open") {
            CompletenessPolicy::Open
        } else {
            CompletenessPolicy::Closed
        },
        ..Default::default()
    };
    // Resolve the requester's applicable read sets exactly as the
    // processor does: instance-level against --doc-uri (none means no
    // instance authorizations apply), schema-level against the DTD URI.
    let mut base = AuthorizationBase::new();
    base.extend(auths);
    let axml = match o.opt("doc-uri") {
        Some(u) => base.applicable_for_action(u, &requester, &dir, xmlsec::authz::Action::Read),
        None => Vec::new(),
    };
    let adtd = base.applicable_for_action(&dtd_uri, &requester, &dir, xmlsec::authz::Action::Read);
    let cp = xmlsec::core::compile(&dtd, &root, &axml, &adtd, &dir, policy)
        .map_err(|e| e.to_string())?;

    let allow = cp.count_verdict("allow");
    let deny = cp.count_verdict("deny");
    let dependent = cp.count_verdict("instance-dependent");
    // (element, attribute, cell) rows in table order; None attribute =
    // the element's own cell.
    let rows: Vec<(&str, Option<&str>, &xmlsec::core::CompiledCell)> = cp
        .elements
        .iter()
        .map(|(e, c)| (e.as_str(), None, c))
        .chain(
            cp.attributes
                .iter()
                .flat_map(|(e, m)| m.iter().map(move |(a, c)| (e.as_str(), Some(a.as_str()), c))),
        )
        .collect();
    let node_name = |e: &str, a: Option<&str>| match a {
        None => format!("<{e}>"),
        Some(a) => format!("<{e}>/@{a}"),
    };

    match o.opt("format").unwrap_or("human") {
        "human" => {
            println!("compiled policy: root <{root}>, dtd-uri {dtd_uri:?}, requester {requester}",);
            println!(
                "applicable: {} instance-level, {} schema-level authorization(s)",
                axml.len(),
                adtd.len()
            );
            println!(
                "cells: {} = {allow} allow, {deny} deny, {dependent} instance-dependent",
                cp.cell_count()
            );
            println!("fast path: {}", if cp.fast_path { "yes" } else { "no" });
            println!("\nverdict table:");
            let width =
                rows.iter().map(|(e, a, _)| node_name(e, *a).chars().count()).max().unwrap_or(0);
            for (e, a, c) in &rows {
                let node = node_name(e, *a);
                let pad = " ".repeat(width.saturating_sub(node.chars().count()));
                let sign = match c.representative() {
                    Some(s) => format!("  sign={}", s.symbol()),
                    None => String::new(),
                };
                let exact = if c.is_exact() { "  exact" } else { "" };
                match &c.verdict {
                    xmlsec::core::Verdict::Instance { reason } => {
                        println!("    {node}{pad}  {:6}  {} ({reason})", c.signs, c.verdict.code());
                    }
                    v => println!("    {node}{pad}  {:6}  {}{sign}{exact}", c.signs, v.code()),
                }
            }
            if !cp.residual.is_empty() {
                println!("\nresidual instance checks:");
                for r in &cp.residual {
                    println!("    {}: {}", r.node, r.reason);
                }
            }
        }
        "json" => {
            let mut out = String::from("{\n");
            out.push_str("  \"schema_version\": 1,\n");
            out.push_str(&format!("  \"root\": {},\n", json_str(&root)));
            out.push_str(&format!("  \"dtd_uri\": {},\n", json_str(&dtd_uri)));
            out.push_str(&format!("  \"doc_uri\": {},\n", json_opt_str(o.opt("doc-uri"))));
            out.push_str(&format!("  \"requester\": {},\n", json_str(&requester.to_string())));
            out.push_str(&format!("  \"applicable_instance\": {},\n", axml.len()));
            out.push_str(&format!("  \"applicable_schema\": {},\n", adtd.len()));
            out.push_str(&format!("  \"fast_path\": {},\n", cp.fast_path));
            out.push_str(&format!(
                "  \"cells\": {{\"total\": {}, \"allow\": {allow}, \"deny\": {deny}, \"instance_dependent\": {dependent}}},\n",
                cp.cell_count()
            ));
            out.push_str("  \"table\": [\n");
            let cell_rows: Vec<String> = rows
                .iter()
                .map(|(e, a, c)| {
                    let reason = match &c.verdict {
                        xmlsec::core::Verdict::Instance { reason } => json_str(reason),
                        _ => "null".to_string(),
                    };
                    let sign = json_opt_str(
                        c.representative().map(|s| s.symbol().to_string()).as_deref(),
                    );
                    format!(
                        "    {{\"element\": {}, \"attribute\": {}, \"signs\": {}, \"verdict\": {}, \"reason\": {reason}, \"sign\": {sign}, \"exact\": {}}}",
                        json_str(e),
                        json_opt_str(*a),
                        json_str(&c.signs.to_string()),
                        json_str(c.verdict.code()),
                        c.is_exact(),
                    )
                })
                .collect();
            out.push_str(&cell_rows.join(",\n"));
            out.push_str("\n  ],\n  \"residual\": [\n");
            let res_rows: Vec<String> = cp
                .residual
                .iter()
                .map(|r| {
                    format!(
                        "    {{\"node\": {}, \"reason\": {}}}",
                        json_str(&r.node.to_string()),
                        json_str(&r.reason)
                    )
                })
                .collect();
            out.push_str(&res_rows.join(",\n"));
            out.push_str("\n  ]\n}");
            println!("{out}");
        }
        other => return Err(format!("--format must be human or json, not {other:?}")),
    }
    Ok(())
}

/// Administrative consistency checks on an XACL: unknown subjects,
/// duplicates, shadowed authorizations, contradictions.
fn cmd_lint(o: &Opts) -> Result<(), String> {
    let auths = parse_xacl(&read(o.one("xacl")?)?).map_err(|e| e.to_string())?;
    let dir = load_directory(o.opt("dir"))?;
    let findings = xmlsec::authz::lint_policy(&auths, &dir);
    if findings.is_empty() {
        println!("clean: {} authorizations, no findings", auths.len());
        return Ok(());
    }
    for f in &findings {
        println!("{f}");
    }
    Err(format!("{} finding(s)", findings.len()))
}

fn cmd_xacl(o: &Opts) -> Result<(), String> {
    let auths = parse_xacl(&read(o.one("xacl")?)?).map_err(|e| e.to_string())?;
    println!("{} authorizations:", auths.len());
    for a in &auths {
        println!("  {a}");
    }
    Ok(())
}
