//! Regenerates the paper's tables and figures (and the extension
//! experiments) as aligned text tables.
//!
//! ```text
//! cargo run -p vdap-bench --bin repro -- all
//! cargo run -p vdap-bench --bin repro -- table1 fig2 fig3
//! cargo run -p vdap-bench --bin repro -- fleet-resume
//! ```
//!
//! An unknown experiment name prints the usage text with the full
//! target list and exits non-zero.

use vdap_bench::experiments;
use vdap_bench::table::TextTable;

const SEED: u64 = 42;

/// One reproduction target: its CLI name, whether its fault windows
/// are derived from the run seed (printed above the table so the exact
/// storm can be rebuilt from the output alone), and the runner.
struct Target {
    name: &'static str,
    seeded_chaos: bool,
    run: Run,
}

/// A target's runner: one table, or several printed in order.
enum Run {
    One(fn(u64) -> TextTable),
    Many(fn(u64) -> Vec<TextTable>),
}

impl Target {
    const fn plain(name: &'static str, run: fn(u64) -> TextTable) -> Self {
        Target {
            name,
            seeded_chaos: false,
            run: Run::One(run),
        }
    }

    const fn chaos(name: &'static str, run: fn(u64) -> TextTable) -> Self {
        Target {
            name,
            seeded_chaos: true,
            run: Run::One(run),
        }
    }

    const fn chaos_tables(name: &'static str, run: fn(u64) -> Vec<TextTable>) -> Self {
        Target {
            name,
            seeded_chaos: true,
            run: Run::Many(run),
        }
    }

    fn tables(&self, seed: u64) -> Vec<TextTable> {
        match self.run {
            Run::One(run) => vec![run(seed)],
            Run::Many(run) => run(seed),
        }
    }
}

/// Every reproduction target, in `all` execution order. This is the
/// single source of truth: the dispatch, the usage listing, and the
/// chaos-seed banner all read from it.
const TARGETS: &[Target] = &[
    Target::plain("table1", |_| experiments::table1().1),
    Target::plain("fig2", |s| experiments::fig2(s).1),
    Target::plain("fig3", |_| experiments::fig3().1),
    Target::plain("upload-wall", |_| experiments::upload_wall()),
    Target::plain("battery", |_| experiments::battery()),
    Target::plain("elastic", experiments::elastic),
    Target::plain("strategies", experiments::strategies),
    Target::plain("crossover", experiments::crossover),
    Target::plain("pbeam", experiments::pbeam),
    Target::plain("ddi", experiments::ddi),
    Target::plain("dsf", |_| experiments::dsf()),
    Target::plain("collab", experiments::collab),
    Target::plain("objectives", experiments::objectives),
    Target::plain("modelcache", experiments::modelcache),
    Target::plain("admission", |_| experiments::admission()),
    Target::plain("infotainment", experiments::infotainment),
    Target::chaos("fleet", experiments::fleet),
    Target::chaos("fleet-chaos", experiments::fleet_chaos),
    Target::plain("fleet-elastic", experiments::fleet_elastic),
    Target::chaos("fleet-storm", experiments::fleet_storm),
    Target::chaos("fleet-trace", experiments::fleet_trace),
    Target::chaos("fleet-ingest", experiments::fleet_ingest),
    Target::chaos("fleet-mobility", experiments::fleet_mobility),
    Target::chaos("fleet-resume", experiments::fleet_resume),
    Target::chaos_tables("fleet-steal", experiments::fleet_steal),
    Target::plain("fleet-obs", experiments::fleet_obs),
];

fn target_of(name: &str) -> Option<&'static Target> {
    TARGETS.iter().find(|t| t.name == name)
}

/// Prints usage plus the list of every reproduction target.
fn usage() {
    eprintln!("usage: repro [all | <experiment>...]");
    eprintln!();
    eprintln!("experiments:");
    for t in TARGETS {
        eprintln!("  {}", t.name);
    }
    eprintln!();
    eprintln!("'all' (or no arguments) runs every experiment in order.");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Validate everything up front so a typo in the middle of a list
    // fails fast instead of after minutes of earlier experiments.
    if let Some(bad) = args.iter().find(|a| *a != "all" && target_of(a).is_none()) {
        eprintln!("unknown experiment '{bad}'");
        eprintln!();
        usage();
        std::process::exit(2);
    }
    let requested: Vec<&Target> = if args.is_empty() || args.iter().any(|a| a == "all") {
        TARGETS.iter().collect()
    } else {
        args.iter()
            .map(|a| target_of(a).expect("validated above"))
            .collect()
    };
    for t in requested {
        if t.seeded_chaos {
            println!("fault-plan seed: {SEED}");
        }
        for table in t.tables(SEED) {
            println!("{}", table.render());
        }
    }
}
