"""The command-line surface, pinned: under an 80-column terminal, the text
of every `--help` and of the parse errors, and the flag values each command
hands its runner.  A refactor of the parser must leave all three as they are.
"""

import argparse

import pytest

from reupsim import cli

HELP = {
    '--help': """\
usage: reupsim [-h] {gen-data,train,evaluate,sweep,analyze} ...

Train and analyze single-qubit data re-uploading classifiers on simulated
ideal or noisy hardware.

positional arguments:
  {gen-data,train,evaluate,sweep,analyze}
    gen-data            generate a circle-boundary dataset CSV
    train               run one training experiment from a config
    evaluate            score a trained parameter vector on a dataset
    sweep               repeat training over one hyperparameter
    analyze             run one of the analysis pipelines

options:
  -h, --help            show this help message and exit
""",
    'analyze --help': """\
usage: reupsim analyze [-h]
                       {residuals,noise-scaling,gradient-noise,landscape,ansatz-spread,time-budget}
                       ...

positional arguments:
  {residuals,noise-scaling,gradient-noise,landscape,ansatz-spread,time-budget}
    residuals           theoretical vs observed populations, raw and mitigated
    noise-scaling       estimator spread vs shot count
    gradient-noise      exact finite-difference gradients vs noisy estimates
    landscape           best-accuracy surface over the first two parameters
    ansatz-spread       total applied rotation angles per ansatz kind
    time-budget         modeled hardware time for a training run

options:
  -h, --help            show this help message and exit
""",
    'gen-data --help': """\
usage: reupsim gen-data [-h] [--n N] --out OUT [--split {train,test}]
                        [--center X0 X1] [--radius RADIUS]
                        [--domain XLO XHI YLO YHI] [--seed SEED]

options:
  -h, --help            show this help message and exit
  --n N                 number of points
  --out OUT             output CSV path
  --split {train,test}  derive the seed for the canonical train or test split
  --center X0 X1
  --radius RADIUS
  --domain XLO XHI YLO YHI
  --seed SEED           master seed (default: $REUP_SEED or config file)
""",
    'train --help': """\
usage: reupsim train [-h] [--config CONFIG] [--out OUT] [--workers WORKERS]
                     [--set KEY=VALUE] [--seed SEED]

options:
  -h, --help         show this help message and exit
  --config CONFIG    YAML config path
  --out OUT          output directory
  --workers WORKERS  accepted for archived configs; does not affect results or
                     speed
  --set KEY=VALUE    override a config key (dotted path, YAML value);
                     repeatable
  --seed SEED        master seed (default: $REUP_SEED or config file)
""",
    'evaluate --help': """\
usage: reupsim evaluate [-h] --theta THETA --data DATA
                        [--backend {ideal,noisy}] [--shots SHOTS]
                        [--residual-sigma RESIDUAL_SIGMA]
                        [--noise-seed NOISE_SEED] [--out OUT]
                        [--ansatz ANSATZ] [--layers LAYERS] [--seed SEED]

options:
  -h, --help            show this help message and exit
  --theta THETA         parameter file (one value per line)
  --data DATA           dataset CSV
  --backend {ideal,noisy}
  --shots SHOTS
  --residual-sigma RESIDUAL_SIGMA
  --noise-seed NOISE_SEED
  --out OUT             per-point results CSV
  --ansatz ANSATZ       ansatz kind (2A, 2B, 2C, 2D)
  --layers LAYERS       number of layers
  --seed SEED           master seed (default: $REUP_SEED or config file)
""",
    'sweep --help': """\
usage: reupsim sweep [-h] --config CONFIG --param PARAM --values VALUES
                     [--repeats REPEATS] [--jobs JOBS] --out OUT
                     [--workers WORKERS] [--set KEY=VALUE] [--seed SEED]

options:
  -h, --help         show this help message and exit
  --config CONFIG    base YAML config
  --param PARAM      dotted config key to vary, e.g. optimizer.population_size
  --values VALUES    comma-separated values
  --repeats REPEATS  repeats per value
  --jobs JOBS        parallel training jobs
  --out OUT          output directory
  --workers WORKERS
  --set KEY=VALUE
  --seed SEED        master seed (default: $REUP_SEED or config file)
""",
    'analyze residuals --help': """\
usage: reupsim analyze residuals [-h] [--points POINTS] [--shots SHOTS]
                                 [--residual-sigma RESIDUAL_SIGMA]
                                 [--calibration-shots CALIBRATION_SHOTS]
                                 [--theta THETA] --out OUT [--ansatz ANSATZ]
                                 [--layers LAYERS] [--seed SEED]

options:
  -h, --help            show this help message and exit
  --points POINTS
  --shots SHOTS
  --residual-sigma RESIDUAL_SIGMA
  --calibration-shots CALIBRATION_SHOTS
  --theta THETA         optional fixed parameter file; default draws per-point
  --out OUT
  --ansatz ANSATZ       ansatz kind (2A, 2B, 2C, 2D)
  --layers LAYERS       number of layers
  --seed SEED           master seed (default: $REUP_SEED or config file)
""",
    'analyze noise-scaling --help': """\
usage: reupsim analyze noise-scaling [-h] [--shots SHOTS] [--repeats REPEATS]
                                     [--points POINTS]
                                     [--residual-sigma RESIDUAL_SIGMA] --out
                                     OUT [--ansatz ANSATZ] [--layers LAYERS]
                                     [--seed SEED]

options:
  -h, --help            show this help message and exit
  --shots SHOTS         comma-separated shot counts, at least two distinct
  --repeats REPEATS
  --points POINTS
  --residual-sigma RESIDUAL_SIGMA
  --out OUT
  --ansatz ANSATZ       ansatz kind (2A, 2B, 2C, 2D)
  --layers LAYERS       number of layers
  --seed SEED           master seed (default: $REUP_SEED or config file)
""",
    'analyze gradient-noise --help': """\
usage: reupsim analyze gradient-noise [-h] [--steps STEPS] [--repeats REPEATS]
                                      [--points POINTS] [--shots SHOTS]
                                      [--ideal] --out OUT [--ansatz ANSATZ]
                                      [--layers LAYERS] [--seed SEED]

options:
  -h, --help         show this help message and exit
  --steps STEPS      comma-separated step sizes
  --repeats REPEATS
  --points POINTS
  --shots SHOTS
  --ideal            run the noisy leg on an ideal backend
  --out OUT
  --ansatz ANSATZ    ansatz kind (2A, 2B, 2C, 2D)
  --layers LAYERS    number of layers
  --seed SEED        master seed (default: $REUP_SEED or config file)
""",
    'analyze landscape --help': """\
usage: reupsim analyze landscape [-h] [--grid-min GRID_MIN]
                                 [--grid-max GRID_MAX]
                                 [--grid-steps GRID_STEPS] [--budget BUDGET]
                                 [--radius RADIUS] [--points POINTS] --out OUT
                                 [--ansatz ANSATZ] [--layers LAYERS]
                                 [--seed SEED]

options:
  -h, --help            show this help message and exit
  --grid-min GRID_MIN
  --grid-max GRID_MAX
  --grid-steps GRID_STEPS
  --budget BUDGET       random perturbations of the remaining parameters per
                        cell
  --radius RADIUS
  --points POINTS
  --out OUT
  --ansatz ANSATZ       ansatz kind (2A, 2B, 2C, 2D)
  --layers LAYERS       number of layers
  --seed SEED           master seed (default: $REUP_SEED or config file)
""",
    'analyze ansatz-spread --help': """\
usage: reupsim analyze ansatz-spread [-h] [--sets SETS] [--points POINTS]
                                     [--layers LAYERS] --out OUT [--seed SEED]

options:
  -h, --help       show this help message and exit
  --sets SETS      random parameter sets per kind
  --points POINTS
  --layers LAYERS  number of layers
  --out OUT
  --seed SEED      master seed (default: $REUP_SEED or config file)
""",
    'analyze time-budget --help': """\
usage: reupsim analyze time-budget [-h] [--population POPULATION]
                                   [--points POINTS] [--shots SHOTS]
                                   [--generations GENERATIONS] --out OUT

options:
  -h, --help            show this help message and exit
  --population POPULATION
  --points POINTS
  --shots SHOTS
  --generations GENERATIONS
  --out OUT
""",
    # an option before the command: the whole table parses argv, and helps
    '-h train': """\
usage: reupsim [-h] {gen-data,train,evaluate,sweep,analyze} ...

Train and analyze single-qubit data re-uploading classifiers on simulated
ideal or noisy hardware.

positional arguments:
  {gen-data,train,evaluate,sweep,analyze}
    gen-data            generate a circle-boundary dataset CSV
    train               run one training experiment from a config
    evaluate            score a trained parameter vector on a dataset
    sweep               repeat training over one hyperparameter
    analyze             run one of the analysis pipelines

options:
  -h, --help            show this help message and exit
""",
}

ERRORS = {
    '': """\
usage: reupsim [-h] {gen-data,train,evaluate,sweep,analyze} ...
reupsim: error: the following arguments are required: command
""",
    'bogus': """\
usage: reupsim [-h] {gen-data,train,evaluate,sweep,analyze} ...
reupsim: error: argument command: invalid choice: 'bogus' (choose from 'gen-data', 'train', 'evaluate', 'sweep', 'analyze')
""",
    'analyze': """\
usage: reupsim analyze [-h]
                       {residuals,noise-scaling,gradient-noise,landscape,ansatz-spread,time-budget}
                       ...
reupsim analyze: error: the following arguments are required: analysis
""",
    'analyze bogus': """\
usage: reupsim analyze [-h]
                       {residuals,noise-scaling,gradient-noise,landscape,ansatz-spread,time-budget}
                       ...
reupsim analyze: error: argument analysis: invalid choice: 'bogus' (choose from 'residuals', 'noise-scaling', 'gradient-noise', 'landscape', 'ansatz-spread', 'time-budget')
""",
    'train --bogus': """\
usage: reupsim [-h] {gen-data,train,evaluate,sweep,analyze} ...
reupsim: error: unrecognized arguments: --bogus
""",
    # a value listed twice would train a sweep cell twice on one seed, or
    # weigh a shot count or step twice in an analysis
    'sweep --config c.yaml --param seed --values 0.1,0.1 --repeats 2 --out s': """\
usage: reupsim sweep [-h] --config CONFIG --param PARAM --values VALUES
                     [--repeats REPEATS] [--jobs JOBS] --out OUT
                     [--workers WORKERS] [--set KEY=VALUE] [--seed SEED]
reupsim sweep: error: argument --values: 0.1 is listed twice
""",
    'analyze noise-scaling --out n --shots 10,10,30': """\
usage: reupsim analyze noise-scaling [-h] [--shots SHOTS] [--repeats REPEATS]
                                     [--points POINTS]
                                     [--residual-sigma RESIDUAL_SIGMA] --out
                                     OUT [--ansatz ANSATZ] [--layers LAYERS]
                                     [--seed SEED]
reupsim analyze noise-scaling: error: argument --shots: 10 is listed twice
""",
    'analyze gradient-noise --out g --steps 0.5,1,0.50': """\
usage: reupsim analyze gradient-noise [-h] [--steps STEPS] [--repeats REPEATS]
                                      [--points POINTS] [--shots SHOTS]
                                      [--ideal] --out OUT [--ansatz ANSATZ]
                                      [--layers LAYERS] [--seed SEED]
reupsim analyze gradient-noise: error: argument --steps: 0.5 is listed twice
""",
    'gen-data': """\
usage: reupsim gen-data [-h] [--n N] --out OUT [--split {train,test}]
                        [--center X0 X1] [--radius RADIUS]
                        [--domain XLO XHI YLO YHI] [--seed SEED]
reupsim gen-data: error: the following arguments are required: --out
""",
    # a parse error of the one command's parser: the whole table words it
    'train --config c.yaml --bogus': """\
usage: reupsim [-h] {gen-data,train,evaluate,sweep,analyze} ...
reupsim: error: unrecognized arguments: --bogus
""",
    'analyze landscape --out o extra': """\
usage: reupsim [-h] {gen-data,train,evaluate,sweep,analyze} ...
reupsim: error: unrecognized arguments: extra
""",
    'train --config': """\
usage: reupsim train [-h] [--config CONFIG] [--out OUT] [--workers WORKERS]
                     [--set KEY=VALUE] [--seed SEED]
reupsim train: error: argument --config: expected one argument
""",
}

RECEIVED = {
    'gen-data --out d.csv':
        dict(n=None, out='d.csv', split=None, center=None, radius=None, domain=None,
             seed=None),
    'train':
        dict(config=None, out=None, workers=None, set=[], seed=None),
    'evaluate --theta t.txt --data d.csv':
        dict(theta='t.txt', data='d.csv', backend='ideal', shots=150, residual_sigma=0.006,
             noise_seed=None, out=None, ansatz=None, layers=None, seed=None),
    'sweep --config c.yaml --param seed --values 1 --out s':
        dict(config='c.yaml', param='seed', values=['1'], repeats=5, jobs=1, out='s',
             workers=None, set=[], seed=None),
    'analyze residuals --out r':
        dict(points=250, shots=500, residual_sigma=0.006, calibration_shots=20000,
             theta=None, out='r', ansatz=None, layers=None, seed=None),
    'analyze noise-scaling --out n':
        dict(shots=[10, 30, 100, 300, 1000], repeats=200, points=20, residual_sigma=0.0,
             out='n', ansatz=None, layers=None, seed=None),
    'analyze gradient-noise --out g':
        dict(steps=[0.1, 0.5, 1.0], repeats=20, points=25, shots=150, ideal=False, out='g',
             ansatz=None, layers=None, seed=None),
    'analyze landscape --out l':
        dict(grid_min=-3.141592653589793, grid_max=3.141592653589793, grid_steps=21,
             budget=0, radius=0.5, points=100, out='l', ansatz=None, layers=None,
             seed=None),
    'analyze ansatz-spread --out a':
        dict(sets=20, points=200, layers=None, out='a', seed=None),
    'analyze time-budget --out t':
        dict(population=50, points=250, shots=150, generations=1, out='t'),
    'gen-data --out d.csv --n 5 --split test --center 0.1 0.2 --radius 0.5 --domain -1 1 '
    '-1 1.5 --seed 3':
        dict(n=5, out='d.csv', split='test', center=[0.1, 0.2], radius=0.5,
             domain=[-1.0, 1.0, -1.0, 1.5], seed=3),
    'train --config c.yaml --out o --workers 2 --set a=1 --set b.c=x --seed 4':
        dict(config='c.yaml', out='o', workers=2, set=['a=1', 'b.c=x'], seed=4),
    'evaluate --theta t.txt --data d.csv --backend noisy --shots 9 --residual-sigma 0.1 '
    '--noise-seed 3 --out o.csv --ansatz 2B --layers 3 --seed 1':
        dict(theta='t.txt', data='d.csv', backend='noisy', shots=9, residual_sigma=0.1,
             noise_seed=3, out='o.csv', ansatz='2B', layers=3, seed=1),
    'sweep --config c.yaml --param seed --values 1,x --repeats 2 --jobs 3 --out s '
    '--workers 1 --set a=1 --seed 2':
        dict(config='c.yaml', param='seed', values=['1', 'x'], repeats=2, jobs=3, out='s',
             workers=1, set=['a=1'], seed=2),
    'analyze residuals --out r --points 7 --shots 9 --residual-sigma 0.2 '
    '--calibration-shots 11 --theta t.txt --ansatz 2C --layers 2 --seed 5':
        dict(points=7, shots=9, residual_sigma=0.2, calibration_shots=11, theta='t.txt',
             out='r', ansatz='2C', layers=2, seed=5),
    'analyze noise-scaling --out n --shots 5,7 --repeats 3 --points 4 '
    '--residual-sigma 0.1':
        dict(shots=[5, 7], repeats=3, points=4, residual_sigma=0.1, out='n', ansatz=None,
             layers=None, seed=None),
    'analyze gradient-noise --out g --steps 0.2,0.4 --repeats 2 --points 3 --shots 8':
        dict(steps=[0.2, 0.4], repeats=2, points=3, shots=8, ideal=False, out='g',
             ansatz=None, layers=None, seed=None),
    'analyze gradient-noise --out g --ideal':
        dict(steps=[0.1, 0.5, 1.0], repeats=20, points=25, shots=150, ideal=True, out='g',
             ansatz=None, layers=None, seed=None),
    'analyze landscape --out l --grid-min -1 --grid-max 2 --grid-steps 3 --budget 4 '
    '--radius 0.25 --points 6':
        dict(grid_min=-1.0, grid_max=2.0, grid_steps=3, budget=4, radius=0.25, points=6,
             out='l', ansatz=None, layers=None, seed=None),
    'analyze ansatz-spread --out a --sets 2 --points 3 --layers 4 --seed 9':
        dict(sets=2, points=3, layers=4, out='a', seed=9),
    'analyze time-budget --out t --population 3 --points 4 --shots 5 --generations 0':
        dict(population=3, points=4, shots=5, generations=0, out='t'),
}


class _Parsed(Exception):
    """Raised in place of running the command, carrying its parsed flags."""


def _run(argv: str, capsys) -> tuple[int, str, str]:
    try:
        code = cli.main(argv.split())
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture(autouse=True)
def _eighty_columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.parametrize("argv", HELP)
def test_the_help_text(argv, capsys):
    assert _run(argv, capsys) == (0, HELP[argv], "")


@pytest.mark.parametrize("argv", ERRORS)
def test_the_parse_error(argv, capsys):
    assert _run(argv, capsys) == (2, "", ERRORS[argv])


@pytest.mark.parametrize("argv", RECEIVED)
def test_the_flag_values_a_command_receives(argv, monkeypatch):
    parse = argparse.ArgumentParser.parse_args

    def parse_and_stop(self, *args, **kwargs):
        raise _Parsed(parse(self, *args, **kwargs))

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", parse_and_stop)
    with pytest.raises(_Parsed) as parsed:
        cli.main(argv.split())
    flags = vars(parsed.value.args[0])
    received = {name: (type(value), value) for name, value in flags.items()
                if name not in ("command", "analysis", "func")}
    assert received == {name: (type(value), value)
                        for name, value in RECEIVED[argv].items()}


@pytest.mark.parametrize("argv, parsers", [
    ("train --help", 1), ("analyze landscape --help", 1), ("--help", 6),
    ("train --config", 7), ("-h train", 6)])
def test_a_command_builds_only_its_own_parser(argv, parsers, monkeypatch, capsys):
    """argv that starts with a command builds that command's parser alone; the
    whole table (the top level and its five commands) only when argv names no
    command first, or when that parser fails and the table words the error."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    _run(argv, capsys)
    assert len(built) == parsers
