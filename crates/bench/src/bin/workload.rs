//! Workgraph interchange utility: export generated scenarios as
//! hand-editable workgraph files and sanity-check imported ones.
//!
//! Usage:
//!
//! * `workload export [nodes=N] [clusters=K] [seed=S] [out=FILE]` —
//!   generate a scenario (the paper-scale generator; `clusters>1`
//!   homes the last node as the gateway) and print its workgraph
//!   (JSONL interchange, see `flexray-bench::workload`) to FILE or
//!   stdout;
//! * `workload check FILE` — import FILE, validate it and print a
//!   one-line summary (nodes, clusters, census, bus utilisation) plus
//!   the workload fingerprint;
//! * `workload roundtrip FILE` — import FILE, re-export it and
//!   re-import the export; fail unless the second export is
//!   byte-identical and the fingerprints match.
//!
//! `check` and `roundtrip` exit non-zero on any malformed input, with
//! the parser's line-numbered error on stderr — which makes them the
//! CI smoke test for the interchange format. A malformed `export`
//! argument exits 2 naming it.

use flexray_bench::workload::Workload;
use flexray_gen::{generate, GeneratorConfig};

fn usage_exit() -> ! {
    eprintln!(
        "usage: workload export [nodes=N] [clusters=K] [seed=S] [out=FILE]\n\
                workload check FILE\n\
                workload roundtrip FILE"
    );
    std::process::exit(2);
}

fn bad_export_arg(arg: &str) -> ! {
    eprintln!(
        "workload: invalid export argument '{arg}' (takes nodes=N with N >= 2, \
         clusters=K with K >= 1, seed=S, out=FILE)"
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("workload: {msg}");
    std::process::exit(1);
}

fn read(path: &str) -> String {
    match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => fail(&format!("cannot read '{path}': {e}")),
    }
}

fn import(path: &str, text: &str) -> Workload {
    match Workload::import(text) {
        Ok(w) => w,
        Err(e) => fail(&format!("'{path}': {e}")),
    }
}

fn summarise(w: &Workload) -> String {
    let cfg = GeneratorConfig::paper(w.platform.len());
    let stats = match w.stats(&cfg.phy) {
        Ok(stats) => stats,
        Err(e) => fail(&format!("stats failed: {e}")),
    };
    format!(
        "nodes={} clusters={} gateways={} graphs={} scs={} fps={} st={} dyn={} \
         busutil={:.4} fingerprint={}",
        w.platform.len(),
        w.clusters,
        w.gateways.len(),
        stats.graphs,
        stats.census.scs_tasks,
        stats.census.fps_tasks,
        stats.census.st_messages,
        stats.census.dyn_messages,
        stats.bus_util,
        w.fingerprint(),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("export") => {
            let (mut nodes, mut clusters, mut seed) = (5usize, 1usize, 42u64);
            let mut out: Option<String> = None;
            for arg in &args[1..] {
                let Some((key, value)) = arg.split_once('=') else {
                    bad_export_arg(arg)
                };
                match (key, value.parse::<u64>()) {
                    ("nodes", Ok(n)) if n >= 2 => nodes = n as usize,
                    ("clusters", Ok(k)) if k >= 1 => clusters = k as usize,
                    ("seed", Ok(s)) => seed = s,
                    ("out", _) => out = Some(value.to_owned()),
                    _ => bad_export_arg(arg),
                }
            }
            let cfg = if clusters > 1 {
                GeneratorConfig::clustered(nodes, clusters)
            } else {
                GeneratorConfig::paper(nodes)
            };
            let generated = match generate(&cfg, seed) {
                Ok(g) => g,
                Err(e) => fail(&format!("generation failed: {e}")),
            };
            let workload = Workload::of_generated(&generated);
            let text = match workload.export() {
                Ok(text) => text,
                Err(e) => fail(&format!("export failed: {e}")),
            };
            match out {
                Some(path) => {
                    if let Err(e) = std::fs::write(&path, &text) {
                        fail(&format!("cannot write '{path}': {e}"));
                    }
                    eprintln!("{}", summarise(&workload));
                }
                None => print!("{text}"),
            }
        }
        Some("check") => {
            let Some(path) = args.get(1) else {
                usage_exit()
            };
            let workload = import(path, &read(path));
            println!("{}", summarise(&workload));
        }
        Some("roundtrip") => {
            let Some(path) = args.get(1) else {
                usage_exit()
            };
            let first = import(path, &read(path));
            let exported = match first.export() {
                Ok(text) => text,
                Err(e) => fail(&format!("re-export failed: {e}")),
            };
            let second = import(path, &exported);
            let again = match second.export() {
                Ok(text) => text,
                Err(e) => fail(&format!("second export failed: {e}")),
            };
            if exported != again {
                fail("round trip is not byte-identical");
            }
            if first.fingerprint() != second.fingerprint() {
                fail("round trip changed the workload fingerprint");
            }
            println!("roundtrip ok: {}", summarise(&first));
        }
        _ => usage_exit(),
    }
}
