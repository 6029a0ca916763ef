//! Fixture: the command table rule `cmd-drift` reads its names from.

pub static COMMANDS: &[CommandSpec] = &[
    cmd!("GET", 2, CMD_READONLY, string::get),
    cmd!("MSET", -3, CMD_WRITE, string::mset).keys_at(1, -1, 2),
];
