//! `rlb-sim`: command-line front end. `rlb-sim --help` lists the
//! subcommands; each one's `--help` lists its flags.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match rlb_cli::dispatch(&args) {
        Ok((out, success)) => {
            print!("{out}");
            if !success {
                std::process::exit(1);
            }
        }
        Err(rlb_cli::CliError { code, message }) => {
            eprintln!("error: {message}");
            std::process::exit(code);
        }
    }
}
