//! The command line of the workspace's binaries: `--name value` options,
//! bare `--flag`s the binary names up front, and positional words.
//!
//! A binary reads what it understands by name, in any order, typed through
//! [`FromStr`], then calls [`Args::finish`]. That check refuses every
//! argument nothing read, every value that did not parse and every required
//! option that is missing, naming it — so a misspelt option is an error,
//! never a silent default. A refusal prints `error: …` and the usage text
//! and exits 2; [`die`] is the same exit for errors met after that.
//!
//! The binaries print their output through [`print_line`] (the
//! [`crate::outln!`] macro): a reader that closes the pipe early, as `head`
//! does, ends the process quietly with status 0 instead of a panic.
//!
//! ```
//! use openea_runtime::cli::Args;
//!
//! let words = ["run", "--epochs", "5", "--csls"].map(String::from);
//! let mut args = Args::parse("usage: demo", &["csls"], words);
//! assert_eq!(args.positional::<String>("command"), "run");
//! assert_eq!(args.value_or("epochs", 100usize), 5);
//! assert!(args.flag("csls"));
//! assert_eq!(args.check(), Ok(()));
//! ```

use std::fmt::{self, Display};
use std::io::{self, Write};
use std::str::FromStr;

/// Prints `error: {msg}` to stderr and exits with status 2.
pub fn die(msg: impl Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Writes `line` and a newline to stdout through [`write_or_exit`].
pub fn print_line(line: fmt::Arguments<'_>) {
    write_or_exit(&mut io::stdout().lock(), format_args!("{line}\n"));
}

/// Writes `text` to `out`. A closed reader (`BrokenPipe`: it has gone)
/// ends the process quietly with status 0, since nobody is left to read the
/// rest; any other write error is [`die`].
pub fn write_or_exit(out: &mut dyn Write, text: fmt::Arguments<'_>) {
    match out.write_fmt(text) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => die(format_args!("cannot write the output: {e}")),
    }
}

/// `println!` through [`print_line`]: a closed stdout ends the process
/// quietly instead of panicking.
#[macro_export]
macro_rules! outln {
    () => {
        $crate::cli::print_line(format_args!(""))
    };
    ($($arg:tt)*) => {
        $crate::cli::print_line(format_args!($($arg)*))
    };
}

enum Kind {
    Flag,
    /// An option and the word after it, unless that word is another option.
    Opt(Option<String>),
    Word,
}

struct Arg {
    word: String,
    kind: Kind,
    read: bool,
}

/// A binary's arguments, read by name; see the module documentation.
pub struct Args {
    usage: String,
    args: Vec<Arg>,
    /// Errors met while reading, in reading order.
    errors: Vec<String>,
}

impl Args {
    /// The process's arguments. `--help` or `-h` anywhere prints `usage`
    /// and exits 0.
    pub fn from_env(usage: impl Into<String>, flags: &[&str]) -> Self {
        let usage = usage.into();
        let words: Vec<String> = std::env::args().skip(1).collect();
        if words.iter().any(|w| w == "--help" || w == "-h") {
            print_line(format_args!("{usage}"));
            std::process::exit(0);
        }
        Self::parse(usage, flags, words)
    }

    /// `words` split into options, the named bare `flags` (given without
    /// their `--`) and positional words.
    pub fn parse(
        usage: impl Into<String>,
        flags: &[&str],
        words: impl IntoIterator<Item = String>,
    ) -> Self {
        let mut words = words.into_iter().peekable();
        let mut args = Vec::new();
        while let Some(word) = words.next() {
            let kind = match word.strip_prefix("--") {
                Some(name) if flags.contains(&name) => Kind::Flag,
                _ if word.starts_with('-') && word.len() > 1 => {
                    Kind::Opt(words.next_if(|next| !next.starts_with("--")))
                }
                _ => Kind::Word,
            };
            args.push(Arg {
                word,
                kind,
                read: false,
            });
        }
        Self {
            usage: usage.into(),
            args,
            errors: Vec::new(),
        }
    }

    /// True when there are no arguments at all.
    pub fn is_empty(&self) -> bool {
        self.args.is_empty()
    }

    /// Whether the bare `--name` was given.
    pub fn flag(&mut self, name: &str) -> bool {
        let mut found = false;
        for arg in self.named(name) {
            arg.read = true;
            found = true;
        }
        found
    }

    /// The value of `--name VALUE`, the last one if it is repeated; `None`
    /// when it is absent, and also when its value is missing or does not
    /// parse, which [`Args::check`] then refuses.
    pub fn value<T: FromStr>(&mut self, name: &str) -> Option<T>
    where
        T::Err: Display,
    {
        let mut last = None;
        for arg in self.named(name) {
            arg.read = true;
            last = Some(match &arg.kind {
                Kind::Opt(value) => value.clone(),
                _ => None,
            });
        }
        let value = match last? {
            Some(value) => value,
            None => {
                self.errors.push(format!("--{name} needs a value"));
                return None;
            }
        };
        match value.parse() {
            Ok(v) => Some(v),
            Err(e) => {
                self.errors
                    .push(format!("--{name}: invalid value '{value}' ({e})"));
                None
            }
        }
    }

    /// [`Args::value`], or `default` when the option is absent.
    pub fn value_or<T: FromStr>(&mut self, name: &str, default: T) -> T
    where
        T::Err: Display,
    {
        self.value(name).unwrap_or(default)
    }

    /// [`Args::value`] of an option that must be given.
    pub fn required<T: FromStr + Default>(&mut self, name: &str) -> T
    where
        T::Err: Display,
    {
        if self.named(name).next().is_none() {
            self.errors.push(format!("missing --{name}"));
        }
        self.value(name).unwrap_or_default()
    }

    /// The next positional word nothing has read yet; `what` names it when
    /// it is missing or does not parse.
    pub fn positional<T: FromStr + Default>(&mut self, what: &str) -> T
    where
        T::Err: Display,
    {
        let Some(arg) = self
            .args
            .iter_mut()
            .find(|a| matches!(a.kind, Kind::Word) && !a.read)
        else {
            self.errors.push(format!("missing {what}"));
            return T::default();
        };
        arg.read = true;
        match arg.word.parse() {
            Ok(v) => v,
            Err(e) => {
                let msg = format!("{what}: invalid value '{}' ({e})", arg.word);
                self.errors.push(msg);
                T::default()
            }
        }
    }

    /// The first refusal: an argument nothing read (it may have taken a word
    /// meant for another), else the first error met while reading.
    pub fn check(&self) -> Result<(), String> {
        if let Some(arg) = self.args.iter().find(|a| !a.read) {
            return Err(match arg.kind {
                Kind::Word => format!("unexpected argument {}", arg.word),
                _ => format!("unknown option {}", arg.word),
            });
        }
        self.errors.first().map_or(Ok(()), |e| Err(e.clone()))
    }

    /// [`Args::check`], and on a refusal `error: …`, the usage text and
    /// exit status 2.
    pub fn finish(self) {
        if let Err(e) = self.check() {
            die(format_args!("{e}\n\n{}", self.usage));
        }
    }

    fn named<'a>(&'a mut self, name: &'a str) -> impl Iterator<Item = &'a mut Arg> {
        self.args.iter_mut().filter(move |a| {
            !matches!(a.kind, Kind::Word) && a.word.strip_prefix("--") == Some(name)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(flags: &[&str], words: &[&str]) -> Args {
        Args::parse("usage", flags, words.iter().map(|w| w.to_string()))
    }

    #[test]
    fn options_flags_and_positionals_read_in_any_order() {
        let mut a = args(&["watch"], &["--watch", "--seed", "3", "snap", "extra"]);
        assert_eq!(a.value::<u64>("seed"), Some(3));
        assert_eq!(a.positional::<String>("path"), "snap");
        assert!(a.flag("watch"));
        assert!(!a.flag("delta"));
        assert_eq!(a.value::<u64>("threads"), None);
        assert_eq!(a.check(), Err("unexpected argument extra".into()));
        assert_eq!(a.positional::<String>("second"), "extra");
        assert_eq!(a.check(), Ok(()));
    }

    #[test]
    fn repeated_reads_agree_and_the_last_repeat_wins() {
        let mut a = args(&[], &["--seed", "1", "--seed", "2"]);
        assert_eq!(a.value_or("seed", 0u64), 2);
        assert_eq!(a.value_or("seed", 0u64), 2);
        assert_eq!(a.check(), Ok(()));
    }

    #[test]
    fn a_flag_takes_no_value_and_an_option_takes_no_option() {
        let mut a = args(&["csls"], &["--csls", "true"]);
        assert!(a.flag("csls"));
        assert_eq!(a.check(), Err("unexpected argument true".into()));

        let mut a = args(&["csls"], &["--out", "--csls"]);
        assert!(a.flag("csls"));
        assert_eq!(a.value::<String>("out"), None);
        assert_eq!(a.check(), Err("--out needs a value".into()));
    }

    #[test]
    fn bad_and_missing_values_name_their_option() {
        let mut a = args(&[], &["--epochs", "five", "--seed"]);
        assert_eq!(a.value_or("epochs", 7usize), 7);
        assert_eq!(a.value::<u64>("seed"), None);
        let err = a.check().unwrap_err();
        assert!(err.starts_with("--epochs: invalid value 'five'"), "{err}");

        let mut a = args(&[], &["--seed"]);
        assert_eq!(a.value::<u64>("seed"), None);
        assert_eq!(a.check(), Err("--seed needs a value".into()));

        let mut a = args(&[], &["--out", "x"]);
        assert_eq!(a.required::<String>("dataset"), "");
        assert_eq!(a.required::<String>("out"), "x");
        assert_eq!(a.positional::<String>("command"), "");
        assert_eq!(a.check(), Err("missing --dataset".into()));
    }

    #[test]
    fn an_unread_argument_comes_before_any_read_error() {
        // `--datset` takes `D` as its value, so `--dataset` looks missing:
        // the misspelling is what gets named.
        let mut a = args(&[], &["--datset", "D", "--epochs", "x"]);
        assert_eq!(a.required::<String>("dataset"), "");
        assert_eq!(a.value::<usize>("epochs"), None);
        assert_eq!(a.check(), Err("unknown option --datset".into()));

        // Never read, a value-less option is unknown, not short of a value.
        let a = args(&[], &["--epoch"]);
        assert_eq!(a.check(), Err("unknown option --epoch".into()));
        let a = args(&[], &["-x", "1"]);
        assert_eq!(a.check(), Err("unknown option -x".into()));
    }
}
