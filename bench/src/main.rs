fn main() -> std::process::ExitCode {
    m3gc_ledger::cli::main(std::env::args().skip(1).collect())
}
