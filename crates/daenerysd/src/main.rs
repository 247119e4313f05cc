//! The `daenerysd` binary: bind, serve, drain on SIGTERM/SIGINT,
//! emit the final metrics snapshot, exit 0.

use daenerysd::server::{Server, ServerConfig};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// SIGTERM/SIGINT/SIGUSR1 land here via the raw `signal(2)` shim — no
/// libc crate in the image, and each handler body is just an atomic
/// store, which is async-signal-safe. SIGUSR1 requests a live metrics
/// snapshot (printed by the accept loop) without stopping the daemon.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static TERM: AtomicBool = AtomicBool::new(false);
    pub static USR1: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_term(_signum: i32) {
        TERM.store(true, Ordering::SeqCst);
    }

    extern "C" fn on_usr1(_signum: i32) {
        USR1.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    const SIGINT: i32 = 2;
    // Linux numbering; this shim only compiles on the unix image.
    const SIGUSR1: i32 = 10;
    const SIGTERM: i32 = 15;

    pub fn install() {
        unsafe {
            signal(SIGTERM, on_term);
            signal(SIGINT, on_term);
            signal(SIGUSR1, on_usr1);
        }
    }
}

#[cfg(not(unix))]
mod sig {
    use std::sync::atomic::AtomicBool;

    pub static TERM: AtomicBool = AtomicBool::new(false);
    pub static USR1: AtomicBool = AtomicBool::new(false);

    pub fn install() {}
}

fn usage() -> &'static str {
    "usage: daenerysd [--addr HOST:PORT] [--cache-dir DIR] [--threads N]\n\
     \x20                [--frame-deadline-ms MS]\n\
     \x20                [--max-in-flight N] [--max-fuel-in-flight N]\n\
     \x20                [--max-deadline-ms MS] [--metrics-out FILE]"
}

struct Args {
    config: ServerConfig,
    metrics_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut config = ServerConfig::default();
    let mut metrics_out = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| {
            argv.next()
                .ok_or_else(|| format!("{} needs a value\n{}", name, usage()))
        };
        match flag.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--cache-dir" => config.base.cache_dir = Some(PathBuf::from(value("--cache-dir")?)),
            "--threads" => config.base.threads = parse_num(&value("--threads")?)? as usize,
            "--frame-deadline-ms" => {
                config.frame_deadline_ms = parse_num(&value("--frame-deadline-ms")?)?;
            }
            "--max-in-flight" => {
                config.policy.max_in_flight = parse_num(&value("--max-in-flight")?)? as usize;
            }
            "--max-fuel-in-flight" => {
                config.policy.max_fuel_in_flight =
                    Some(parse_num(&value("--max-fuel-in-flight")?)?);
            }
            "--max-deadline-ms" => {
                config.policy.max_deadline_ms = parse_num(&value("--max-deadline-ms")?)?;
            }
            "--metrics-out" => metrics_out = Some(PathBuf::from(value("--metrics-out")?)),
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown flag {:?}\n{}", other, usage())),
        }
    }
    Ok(Args {
        config,
        metrics_out,
    })
}

fn parse_num(s: &str) -> Result<u64, String> {
    s.parse::<u64>()
        .map_err(|_| format!("expected a number, got {:?}", s))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{}", msg);
            return ExitCode::FAILURE;
        }
    };
    let server = match Server::bind(args.config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("daenerysd: bind failed: {}", e);
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        // The smoke script scrapes this line for the ephemeral port.
        Ok(addr) => println!("daenerysd listening on {}", addr),
        Err(e) => {
            eprintln!("daenerysd: no local address: {}", e);
            return ExitCode::FAILURE;
        }
    }
    sig::install();
    let shutdown = server.shutdown_flag();
    let snapshot_flag = server.snapshot_flag();
    std::thread::spawn(move || loop {
        if sig::USR1.swap(false, Ordering::SeqCst) {
            snapshot_flag.store(true, Ordering::SeqCst);
        }
        if sig::TERM.load(Ordering::SeqCst) {
            shutdown.store(true, Ordering::SeqCst);
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    });

    let snapshot = server.run();
    let json = snapshot.to_json().render();
    match &args.metrics_out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, format!("{}\n", json)) {
                eprintln!("daenerysd: writing {}: {}", path.display(), e);
                return ExitCode::FAILURE;
            }
        }
        None => println!("{}", json),
    }
    if snapshot.leaked_sessions != 0 {
        eprintln!(
            "daenerysd: {} session(s) leaked at shutdown",
            snapshot.leaked_sessions
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
