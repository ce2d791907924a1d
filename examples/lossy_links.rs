//! Fault-tolerant LAM communication over lossy links: the Q1 retrieval and
//! Q2 vital update from the paper, re-run on a simulated fabric that drops
//! messages, with and without the retry layer.
//!
//! ```sh
//! cargo run --example lossy_links            # default 30% per-link loss
//! cargo run --example lossy_links -- 0.5     # heavier loss
//! ```

use mdbs::fixtures::{paper_federation_with, FederationProfiles};
use mdbs::{Federation, RetryPolicy};
use netsim::Network;
use std::time::Duration;

const Q1: &str = "USE avis national
    LET car.type.status BE cars.cartype.carst vehicle.vty.vstat
    SELECT %code, type, ~rate FROM car WHERE status = 'available'";

const Q2: &str = "USE continental VITAL delta united VITAL
    UPDATE flight%
    SET rate% = rate% * 1.1
    WHERE sour% = 'Houston' AND dest% = 'San Antonio'";

/// Paper federation on a seeded network with every link touching `sites`
/// degraded with probability `p`. Each link draws its drops from its own
/// seeded stream, so the drop sequence is the same across runs.
fn lossy_federation(seed: u64, sites: &[&str], p: f64) -> Federation {
    let mut fed = paper_federation_with(Network::with_seed(seed), FederationProfiles::default());
    fed.timeout = Duration::from_millis(150);
    for site in sites {
        fed.network().set_link_drop_probability("*", site, p);
        fed.network().set_link_drop_probability(site, "*", p);
    }
    fed
}

fn heal(fed: &Federation, sites: &[&str]) {
    for site in sites {
        fed.network().clear_link_drop_probability("*", site);
        fed.network().clear_link_drop_probability(site, "*");
    }
}

fn show_stats(fed: &Federation) {
    let s = fed.exec_stats();
    let n = fed.network().stats();
    println!(
        "  net: {} messages dropped | exec: {} attempts, {} retries, {} transient faults, \
         {} recovered, {} terminal, {} degraded\n",
        n.dropped,
        s.attempts,
        s.retries,
        s.transient_faults,
        s.recovered,
        s.terminal_faults,
        s.degraded
    );
}

fn main() {
    let p: f64 = match std::env::args().nth(1) {
        None => 0.3,
        Some(raw) => match raw.parse() {
            Ok(v) if (0.0..=1.0).contains(&v) => v,
            _ => {
                eprintln!("error: drop probability must be a number in [0, 1], got {raw:?}");
                std::process::exit(2);
            }
        },
    };

    println!(
        "=== 1. Q1 retrieval, {:.0}% loss on site4/site5 links, retries enabled ===\n",
        p * 100.0
    );
    let sites = ["site4", "site5"];
    let mut fed = lossy_federation(0xA1, &sites, p);
    fed.retry = RetryPolicy { max_attempts: 5, ..RetryPolicy::retries(5) };
    match fed.execute(Q1) {
        Ok(out) => {
            let mt = out.into_multitable().unwrap();
            println!("  multitable answered by {} of 2 databases:", mt.tables.len());
            for t in &mt.tables {
                println!("    {:<10} {} rows", t.database, t.result.rows.len());
            }
        }
        Err(e) => println!("  failed: {e}"),
    }
    show_stats(&fed);
    heal(&fed, &sites);

    println!("=== 2. Same seed, same links, retries DISABLED ===\n");
    let mut fed = lossy_federation(0xA1, &sites, p);
    match fed.execute(Q1) {
        Ok(out) => {
            let mt = out.into_multitable().unwrap();
            println!("  multitable answered by {} of 2 databases (partial)", mt.tables.len());
        }
        Err(e) => println!("  failed: {e}"),
    }
    show_stats(&fed);
    heal(&fed, &sites);

    println!("=== 3. Q2 vital update, lossy links on all three sites, retries enabled ===\n");
    let sites = ["site1", "site2", "site3"];
    let mut fed = lossy_federation(0xB2, &sites, p);
    fed.retry = RetryPolicy { max_attempts: 5, ..RetryPolicy::retries(5) };
    match fed.execute(Q2) {
        Ok(out) => {
            let report = out.into_update().unwrap();
            println!(
                "  return code {} — {}",
                report.return_code,
                mdbs::retcode::describe(report.return_code, false)
            );
            for o in &report.outcomes {
                println!("    {:<12} {:?} after {} attempt(s)", o.key, o.status, o.attempts);
            }
        }
        Err(e) => println!("  failed: {e}"),
    }
    show_stats(&fed);
    heal(&fed, &sites);

    println!("=== 4. delta's site unreachable: NON VITAL degradation (§3.2) ===\n");
    let mut fed = paper_federation_with(Network::new(), FederationProfiles::default());
    fed.timeout = Duration::from_millis(300);
    fed.tolerate_unreachable = true;
    fed.network().deregister("site2");
    match fed.execute(Q2) {
        Ok(out) => {
            let report = out.into_update().unwrap();
            println!(
                "  success = {} (delta was NON VITAL, so the statement survives)",
                report.success
            );
            for o in &report.outcomes {
                println!("    {:<12} {:?} (fault: {:?})", o.key, o.status, o.fault);
            }
        }
        Err(e) => println!("  failed: {e}"),
    }
    show_stats(&fed);
}
