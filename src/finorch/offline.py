"""Scripted backends for offline mode.

Offline runs replace every live backend with a deterministic in-process
script: the primary agent answers golden probes verbatim, produces parseable
forecasts and report sections, and self-assesses with a fixed score; the
secondary agent answers junk (so evaluation has a real loser to rank); the
judge accepts. Everything here is plain data — no network, no randomness.
"""

from __future__ import annotations

FORECAST_REPLY_AAPL_EN = """[Positive Developments]:
1. Services revenue keeps climbing as the installed base compounds, cushioning hardware cyclicality. (News)
2. The pullback from 172.40 to 167.00 has been orderly on light volume, suggesting sellers are not pressing. (Stock Price)
3. Gross margin near 46 and an interest-light balance sheet leave room to keep funding buybacks. (Basic Financials)

[Potential Concerns]:
1. A pe_ratio of 26.4 already prices in a smooth quarter, so any guidance wobble cuts straight into the multiple. (Basic Financials)
2. Regulatory attention on app distribution keeps a persistent headline overhang. (News)

[Prediction & Analysis]:
Prediction: Up by 0-1%
Analysis: The tape has been heavy but orderly, and the services mix keeps the earnings floor high. With positioning light into the report week and no new negative catalyst on the calendar, a drift higher of under one percent is the base case; the rich multiple argues against anything stronger.
"""

FORECAST_REPLY_NVDA_EN = """[Positive Developments]:
1. Closes marched from the high 480s to the mid 650s over the window, a persistent uptrend with shallow pullbacks. (Stock Price)
2. Coverage of accelerator demand points to order books that remain oversubscribed into the new year. (News)
3. Reported margins stay exceptional for a hardware name, with operating leverage still improving. (Basic Financials)

[Potential Concerns]:
1. The valuation multiple leaves no slack if data-center order timing slips a quarter. (Basic Financials)
2. Export-control headlines resurface regularly and can knock sentiment without warning. (News)

[Prediction & Analysis]:
Prediction: Up by 2-3%
Analysis: Momentum, demand coverage, and margin trajectory all point the same way, and dips keep getting bought. Crowded positioning caps the pace, but another week of grinding higher in the two to three percent band is the likeliest path.
"""

FORECAST_REPLY_ZH = """[积极发展]:
1. 主营业务需求稳健，渠道反馈显示订单能见度延续到下一季度。(News)
2. 近一个月股价走势平稳，回调幅度有限，换手理性。(Stock Price)
3. 毛利率保持稳定，经营现金流充裕，资产负债结构健康。(Basic Financials)

[潜在担忧]:
1. 估值处于近年区间上沿，业绩一旦低于预期，回调压力较大。(Basic Financials)
2. 行业监管动态仍有不确定性，可能带来阶段性情绪扰动。(News)

[预测和分析]:
预测涨跌幅: 上涨0-1%
总结分析：基本面稳健而估值偏高，两者相抵后，下周股价更可能呈温和上行格局。考虑到订单能见度与现金流的支撑，预计涨幅在0-1%区间，若出现监管类消息则波动可能放大。
"""

# Golden-probe answers. Each probe string below must appear verbatim in the
# matching golden record's input_text, and nowhere else in any prompt.
FORECAST_PROBE_ANSWERS = {
    "probe alpha:": "up by 0-1% on steady services demand",
    "probe beta:": "down by 1-2% on margin compression",
    "probe gamma:": "up by 2-3% after the accelerator ramp",
    "probe delta:": "down by 0-1% on regulatory overhang",
}

REPORT_PROBE_ANSWERS = {
    "report probe one:": "five sections grounded in retrieved passages",
    "report probe two:": "indicators extracted with cited chunk ids",
}

SECTION_REPLIES = {
    "Company Overview": (
        "The company designs precision systems across three reported "
        "segments and monetizes a large installed base through service "
        "contracts. [chunk-0001]"
    ),
    "Financial Performance": (
        "Quarterly revenue grew eight percent with net income of 2.1 "
        "billion; margins held despite input costs. [chunk-0002]"
    ),
    "Peer Comparison": (
        "Against larger diversified peers the company gained share in core "
        "servo drives while commodity pricing stayed competitive. [chunk-0003]"
    ),
    "Risks": (
        "Cyclicality, customer concentration above ten percent of sales, "
        "and ongoing warranty litigation are the live risks. [chunk-0004]"
    ),
    "Outlook": (
        "Management guides five to seven percent growth with flat to "
        "slightly higher gross margin. [chunk-0005]"
    ),
}

INDICATOR_REPLIES = {
    "revenue": (
        "```tool\n"
        '{"tool": "record_indicator", "args": {"name": "revenue", '
        '"value": 12.0, "unit": "billion"}}\n'
        "```"
    ),
    "net income": (
        "```tool\n"
        '{"tool": "record_indicator", "args": {"name": "net income", '
        '"value": 2.1, "unit": "billion"}}\n'
        "```"
    ),
    "gross margin": "ABSENT",
    "operating cash flow": "ABSENT",
    "total debt": "ABSENT",
}

SELF_ASSESSMENT_FORECAST = (
    "score: 0.9 cited every evidence block; next time quantify the news "
    "impact on the band."
)
SELF_ASSESSMENT_REPORT = (
    "score: 0.8 sections stayed grounded in passages; peer data was thin."
)
JUDGE_REPLY = "score: 1.0 output satisfies the acceptance text"
SECONDARY_REPLY = "unable-to-comply: format guidance was ignored"


def primary_script() -> list[dict]:
    """Ordered rules for the primary agent backend.

    Specific matches come first; the generic per-symbol forecast rules
    close the list so they cannot shadow anything.
    """
    rules: list[dict] = [
        {"match": "forecast-", "reply": SELF_ASSESSMENT_FORECAST},
        {"match": "report-", "reply": SELF_ASSESSMENT_REPORT},
    ]
    for probe, answer in FORECAST_PROBE_ANSWERS.items():
        rules.append({"match": probe, "reply": answer})
    for probe, answer in REPORT_PROBE_ANSWERS.items():
        rules.append({"match": probe, "reply": answer})
    for topic, reply in INDICATOR_REPLIES.items():
        rules.append({"match": f'indicator "{topic}"', "reply": reply})
        rules.append({"match": f"指标“{topic}”", "reply": reply})
    for section, reply in SECTION_REPLIES.items():
        rules.append({"match": f'"{section}"', "reply": reply})
    rules.append({"match": "公司简介", "reply": FORECAST_REPLY_ZH})
    rules.append({"match": "NVDA", "reply": FORECAST_REPLY_NVDA_EN})
    rules.append({"match": "AAPL", "reply": FORECAST_REPLY_AAPL_EN})
    return rules


def secondary_script() -> list[dict]:
    return [{"match": "", "reply": SECONDARY_REPLY}]


def judge_script() -> list[dict]:
    return [{"match": "", "reply": JUDGE_REPLY}]


def script_for(backend_id: str) -> list[dict]:
    """The offline stand-in script for a configured backend id."""
    if backend_id == "judge":
        return judge_script()
    if backend_id.endswith("secondary"):
        return secondary_script()
    return primary_script()
