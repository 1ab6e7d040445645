//! The `conprobe` CLI: run tests, analyze traces, summarize campaigns.
//!
//! ```sh
//! cargo run --release --bin conprobe -- run --service gplus --test 1 --timeline
//! ```

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The usage answers a command line that did not parse; a command that
    // parsed and then failed gets its error alone.
    let command = match conprobe::cli::parse(&args) {
        Ok(command) => command,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", conprobe::cli::USAGE);
            return ExitCode::FAILURE;
        }
    };
    match conprobe::cli::execute(command) {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
