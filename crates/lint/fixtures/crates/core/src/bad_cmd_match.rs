//! Fixture: rule `cmd-drift` — command names compared outside the table.

fn route(name: &[u8], sink: &mut Sink) -> usize {
    if name.eq_ignore_ascii_case(b"GET") {
        return 1;
    }
    match name {
        b"MSET" | b"NOTACOMMAND" => 2,
        b"EX" => 3, // an option word the table does not list: clean
        _ => {
            sink.arg(b"GET"); // building a command compares nothing: clean
            let _doc = "b\"GET\" =>"; // prose in a string: clean
            // skv-lint: allow(cmd-drift) -- fixture: the one reasoned fast path
            usize::from(name == b"GET")
        }
    }
}
