//! The `ncap` command-line tool. See [`ncap_cli::USAGE`].

fn main() {
    // The arguments live as long as the process; leaking them once lets
    // the parser hand out `&'static` flag names in its errors.
    let args: Vec<&'static str> = std::env::args()
        .skip(1)
        .map(|a| &*Box::leak(a.into_boxed_str()))
        .collect();
    let code = match ncap_cli::parse(args) {
        Ok(cmd) => ncap_cli::execute(cmd),
        Err(e) => {
            eprintln!("error: {e}\n\n{}", ncap_cli::USAGE);
            2
        }
    };
    std::process::exit(code);
}
