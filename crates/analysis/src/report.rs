//! Human-readable analysis reports.

use crate::classify::{Analysis, Pattern};
use fsr_lang::ast::Program;
use std::fmt::Write;

fn pattern_str(p: Pattern) -> &'static str {
    match p {
        Pattern::None => "-",
        Pattern::OneProc => "one-proc",
        Pattern::PerProcess => "per-process",
        Pattern::Shared => "shared",
    }
}

/// Render the per-data-structure classification table.
pub fn render(prog: &Program, a: &Analysis) -> String {
    let mut out = String::new();
    writeln!(out, "analysis for {} processes", a.nproc).unwrap();
    writeln!(
        out,
        "{:<24} {:>12} {:>12} {:>10} {:>10} {:>8} {:>10}",
        "data structure", "writes", "reads", "w-weight", "r-weight", "owner", "partition"
    )
    .unwrap();
    let mut classes: Vec<_> = a.classes.iter().collect();
    classes.sort_by(|x, y| y.total_weight().total_cmp(&x.total_weight()));
    for c in classes {
        let obj = prog.object(c.obj);
        let name = match c.field {
            Some(f) => {
                let fname = match obj.elem {
                    fsr_lang::ast::ElemTy::Struct(sid) => {
                        prog.struct_(sid).fields[f.index()].name.clone()
                    }
                    _ => format!("f{}", f.0),
                };
                format!("{}.{}", obj.name, fname)
            }
            None => obj.name.clone(),
        };
        let owner = match c.owner_map {
            Some(crate::classify::OwnerMap::Dim { dim }) => format!("dim{dim}"),
            Some(crate::classify::OwnerMap::Chunk { chunk }) => format!("chunk{chunk}"),
            Some(crate::classify::OwnerMap::Interleave { stride, .. }) => {
                format!("cyc{stride}")
            }
            None => "-".to_string(),
        };
        writeln!(
            out,
            "{:<24} {:>12} {:>12} {:>10.1} {:>10.1} {:>8} {:>10}",
            name,
            pattern_str(c.write.pattern),
            pattern_str(c.read.pattern),
            c.write.weight,
            c.read.weight,
            owner,
            if c.partition_assumed { "assumed" } else { "-" },
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_patterns() {
        let prog = fsr_lang::compile(
            "param NPROC = 4; shared int c[NPROC];
             fn main() { forall p in 0 .. NPROC { c[p] = 1; } }",
        )
        .unwrap();
        let a = crate::analyze(&prog).unwrap();
        let r = render(&prog, &a);
        assert!(r.contains("per-process"));
        assert!(r.contains('c'));
    }
}
